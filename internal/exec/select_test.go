package exec

import (
	"fmt"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// TestFilterLendsOnlyToSelectionReaders: a Filter lends its survivors as a
// selection only to a part whose consumer reads selections — through an
// Alias, and with operator stats armed, whose counters count the selected
// rows — and hands every other consumer dense batches. Either way the rows
// a keeper retains are exactly the survivors, in order.
func TestFilterLendsOnlyToSelectionReaders(t *testing.T) {
	s, tbl := bigTable(t, 5000, 7)
	filter := &plan.Filter{Child: plan.NewScan(tbl, "", s.Snapshot()),
		Pred: &expr.BinOp{Op: expr.OpLt, L: colRef("k", 0, types.Int64), R: &expr.Const{Val: types.NewInt(3)}, Typ: types.Bool}}
	var want []string
	for i := range 5000 {
		if i%7 < 3 {
			want = append(want, fmt.Sprint([]types.Value{types.NewInt(int64(i % 7)), types.NewFloat(float64(i))}))
		}
	}
	for _, root := range []plan.Node{filter, &plan.Alias{Child: filter, Name: "f"}} {
		for _, stats := range []bool{false, true} {
			for _, sel := range []bool{false, true} {
				name := fmt.Sprintf("%s, stats %v, reads selections %v", root.Explain(), stats, sel)
				ctx := latestContext()
				if stats {
					ctx.EnableStats()
				}
				p := whole(root)
				p.sel = sel
				op, err := buildWith(p, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := op.Open(ctx); err != nil {
					t.Fatal(err)
				}
				var got []string
				lent := 0
				for {
					b, err := op.Next()
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					if b.Sel != nil {
						lent++
					}
					kept := types.Retain(b)
					if kept.Sel != nil || kept.Len() != b.Len() {
						t.Fatalf("%s: Retain kept %d rows with selection %v of a batch of %d", name, kept.Len(), kept.Sel != nil, b.Len())
					}
					for i := range kept.Len() {
						got = append(got, fmt.Sprint(kept.Row(i)))
					}
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
				if (lent > 0) != sel {
					t.Fatalf("%s: %d batches lent as a selection", name, lent)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: kept %d rows, want the %d survivors", name, len(got), len(want))
				}
				if stats {
					if rows := ctx.stats.Tree(filter).RowsOut; rows != int64(len(want)) {
						t.Fatalf("%s: the Filter's stats count %d rows, want %d", name, rows, len(want))
					}
				}
			}
		}
	}
}
