package exec

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// lentRows is the size of lentTable: past the 16,384 rows a pipeline needs
// before it splits into morsels, so that at 8 workers every keeper is fed by
// several parts, each lending from its own projection.
const lentRows = 40_000

// lentTable is a table of lentRows rows (x DOUBLE, k BIGINT, s VARCHAR): x =
// i/8, k = i, s = "s" + i mod 97, each NULL on its own stride of rows.
func lentTable(t *testing.T) (*storage.Store, *storage.Table) {
	t.Helper()
	s := storage.NewStore()
	tbl, err := s.CreateTable("lent", types.Schema{{Name: "x", Type: types.Float64},
		{Name: "k", Type: types.Int64}, {Name: "s", Type: types.String}})
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBatch(tbl.Schema())
	for i := range lentRows {
		for j, v := range lentInput(i) {
			b.Cols[j].Append(v)
		}
	}
	tx := s.Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// lentInput is row i of lentTable.
func lentInput(i int) []types.Value {
	row := []types.Value{types.NewFloat(float64(i) / 8), types.NewInt(int64(i)), types.NewString(fmt.Sprint("s", i%97))}
	for j, every := range []int{7, 11, 5} {
		if i%every == 0 {
			row[j] = types.NewNull(row[j].T)
		}
	}
	return row
}

// lentProjection computes x * 2 + 1, k * 3 - 1 and s || 'z' over lentTable:
// every output column is computed, and so lent from the projection's
// buffers.
func lentProjection(s *storage.Store, tbl *storage.Table) *plan.Project {
	bin := func(op expr.Op, l, r expr.Expr, t types.Type) expr.Expr {
		return &expr.BinOp{Op: op, L: l, R: r, Typ: t}
	}
	k := func(v types.Value) expr.Expr { return &expr.Const{Val: v} }
	return &plan.Project{Child: plan.NewScan(tbl, "", s.Snapshot()), Names: []string{"y", "j", "t"}, Exprs: []expr.Expr{
		bin(expr.OpAdd, bin(expr.OpMul, colRef("x", 0, types.Float64), k(types.NewFloat(2)), types.Float64), k(types.NewFloat(1)), types.Float64),
		bin(expr.OpSub, bin(expr.OpMul, colRef("k", 1, types.Int64), k(types.NewInt(3)), types.Int64), k(types.NewInt(1)), types.Int64),
		bin(expr.OpConcat, colRef("s", 2, types.String), k(types.NewString("z")), types.String),
	}}
}

// lentOutput is lentProjection's row i, computed row by row: what the
// projection returned when each result was a fresh column.
func lentOutput(i int) []types.Value {
	in := lentInput(i)
	out := []types.Value{types.NewNull(types.Float64), types.NewNull(types.Int64), types.NewNull(types.String)}
	if !in[0].Null {
		out[0] = types.NewFloat(in[0].F*2 + 1)
	}
	if !in[1].Null {
		out[1] = types.NewInt(in[1].I*3 - 1)
	}
	if !in[2].Null {
		out[2] = types.NewString(in[2].S + "z")
	}
	return out
}

// TestLentProjectionUnderEveryKeeper: a projection lends the columns it
// computes (DOUBLE, BIGINT and VARCHAR, with NULLs) from buffers it
// overwrites batch after batch, and poisons on Close. Every consumer that
// keeps batches — the statement's result, a sort and a top-k, a Shared
// subplan, an ITERATE working table, a join's build side, an analytical
// operator's input (inputSink) and model application (applySink) — keeps
// exactly the rows a fresh column per batch gave, at 1 and 8 workers.
func TestLentProjectionUnderEveryKeeper(t *testing.T) {
	s, tbl := lentTable(t)
	proj := lentProjection(s, tbl)
	var want [][]types.Value
	for i := range lentRows {
		want = append(want, lentOutput(i))
	}
	// ORDER BY j: NULL first, ties (the NULLs) in scan order.
	byJ := slices.Clone(want)
	slices.SortStableFunc(byJ, func(a, b []types.Value) int { return a[1].Compare(b[1]) })
	// The join probes with every row's j and finds the row itself: the build
	// side's three columns, then the probe's key.
	var joined [][]types.Value
	for _, row := range want {
		if !row[1].Null {
			joined = append(joined, append(slices.Clone(row), row[1]))
		}
	}
	probe := &plan.Project{Child: plan.NewScan(tbl, "", s.Snapshot()), Names: []string{"pj"},
		Exprs: []expr.Expr{proj.Exprs[1]}}
	one := &plan.Values{Sch: types.Schema{{Name: "one", Type: types.Int64}}, Rows: [][]types.Value{{types.NewInt(1)}}}
	withLabels := func(rows [][]types.Value) [][]types.Value {
		var out [][]types.Value
		for _, row := range rows {
			out = append(out, append(slices.Clone(row), types.NewInt(0)))
		}
		return out
	}

	cases := []struct {
		name string
		want [][]types.Value
		run  func(ctx *Context) ([][]types.Value, error)
	}{
		{"result", want, runRows(proj)},
		{"sort", byJ, runRows(&plan.Sort{Child: proj, Keys: []plan.SortKey{{Col: 1}}, TopK: -1})},
		{"top-k", byJ[:100], runRows(&plan.Sort{Child: proj, Keys: []plan.SortKey{{Col: 1}}, TopK: 100})},
		{"shared", want, runRows(&plan.Shared{Child: proj})},
		{"working table", want, runRows(&plan.Iterate{Init: proj, Step: &plan.WorkingScan{Name: "iterate", Sch: proj.Schema()},
			Stop: one, MaxDepth: 10})},
		{"join build side", joined, runRows(&plan.Join{Type: plan.InnerJoin, L: proj, R: probe,
			EquiLeft: []int{1}, EquiRight: []int{0}})},
		{"inputSink", want, func(ctx *Context) ([][]types.Value, error) {
			in, err := loadInput(proj, ctx, "keeper", 0, func(*scratch) (func(*types.Batch) (*types.Batch, error), error) {
				return func(b *types.Batch) (*types.Batch, error) { return b, nil }, nil
			})
			if err != nil {
				return nil, err
			}
			var rows [][]types.Value
			for _, part := range in.parts {
				rows = append(rows, batchRows(part.batches)...)
			}
			return rows, nil
		}},
		{"applySink", withLabels(want), func(ctx *Context) ([][]types.Value, error) {
			schema := append(slices.Clone(proj.Schema()), types.ColumnInfo{Name: "label", Type: types.Int64})
			m, err := applyModel(proj, ctx, "keeper", schema, 0, func(*scratch) (func([]float64, []int64) error, error) {
				return func([]float64, []int64) error { return nil }, nil
			})
			if err != nil {
				return nil, err
			}
			return m.Rows(), nil
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			ctx := latestContext()
			ctx.Workers = workers
			got, err := tc.run(ctx)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%s, workers=%d: %d rows, want %d", tc.name, workers, len(got), len(tc.want))
			}
			for i, row := range got {
				if fmt.Sprint(row) != fmt.Sprint(tc.want[i]) {
					t.Fatalf("%s, workers=%d: row %d is %v, want %v", tc.name, workers, i, row, tc.want[i])
				}
			}
		}
	}
}

// runRows runs p to a materialized result and returns its rows.
func runRows(p plan.Node) func(ctx *Context) ([][]types.Value, error) {
	return func(ctx *Context) ([][]types.Value, error) {
		m, err := Run(p, ctx)
		if err != nil {
			return nil, err
		}
		return m.Rows(), nil
	}
}

// batchRows returns the rows of batches, in order.
func batchRows(batches []*types.Batch) [][]types.Value {
	var rows [][]types.Value
	for _, b := range batches {
		for i := range b.Len() {
			rows = append(rows, b.Row(i))
		}
	}
	return rows
}

// groupByComputedKey is scan_agg's op_b over randomTable's pts, as the
// planner builds it: SELECT g, count(*), sum(d1) FROM (SELECT
// cast(floor(d0 * 100) AS BIGINT) AS g, d1 FROM pts) t GROUP BY g.
func groupByComputedKey(s *storage.Store, tbl *storage.Table) *plan.Aggregate {
	g := &expr.Cast{To: types.Int64, E: &expr.FuncCall{Name: "floor", Typ: types.Float64,
		Args: []expr.Expr{&expr.BinOp{Op: expr.OpMul, L: colRef("d0", 0, types.Float64),
			R: &expr.Const{Val: types.NewFloat(100)}, Typ: types.Float64}}}}
	t := &plan.Project{Child: plan.NewScan(tbl, "", s.Snapshot()), Names: []string{"g", "d1"},
		Exprs: []expr.Expr{g, colRef("d1", 1, types.Float64)}}
	return &plan.Aggregate{Child: t, Keys: []expr.Expr{colRef("g", 0, types.Int64)}, KeyNames: []string{"g"},
		Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"},
			{Func: plan.AggSum, Arg: colRef("d1", 1, types.Float64), Type: types.Float64, Name: "sum(d1)"}}}
}

// BenchmarkGroupByComputedKey is scan_agg's op_b over 1M rows of random
// DOUBLEs at one worker: a projection computes the key cast(floor(d0 *
// 100) AS BIGINT) and the aggregate groups by it, 100 groups. ns/row and
// B/op.
func BenchmarkGroupByComputedKey(b *testing.B) {
	const rows = 1_000_000
	s, tbl := randomTable(b, rows, 4)
	b.ReportAllocs()
	runPerRow(b, groupByComputedKey(s, tbl), rows)
}

// TestGroupByComputedKeyAllocBudget: op_b's GROUP BY over a computed key
// allocates at most 1 B a row at one worker. The projection writes the key
// into a buffer it reuses, and the aggregate keeps 100 groups; what is left
// is per-batch headers and the result. A projection that allocated its
// computed column per batch spent more than 8 B a row on the key alone.
func TestGroupByComputedKeyAllocBudget(t *testing.T) {
	const rows = 200_000
	s, tbl := randomTable(t, rows, 4)
	p := groupByComputedKey(s, tbl)
	ctx := latestContext()
	ctx.Workers = 1
	run := func() {
		m, err := Run(p, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumRows != 100 {
			t.Fatalf("%d groups, want 100", m.NumRows)
		}
	}
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / rows
	t.Logf("%.3f B/row", perRow)
	if perRow > 1 {
		t.Errorf("GROUP BY a computed key allocates %.2f B/row, budget 1", perRow)
	}
}
