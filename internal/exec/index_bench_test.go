package exec

import (
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// indexedBigTable is bigTable plus an ordered secondary index on k.
func indexedBigTable(t testing.TB, n, mod int) (*storage.Store, *storage.Table) {
	t.Helper()
	s, tbl := bigTable(t, n, mod)
	if err := s.CreateIndex(storage.IndexDef{
		Name: "big_k", Table: "big", Column: "k", Kind: storage.OrderedIndex,
	}); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// BenchmarkIndexPointLookup measures a selective point query (k = const,
// one matching row in 200k) through the full scan path versus the ordered
// secondary index. The index probe touches one posting list instead of the
// whole column; the target speedup is >= 10x.
func BenchmarkIndexPointLookup(b *testing.B) {
	const rows = 200_000
	target := int64(123_456)
	eq := types.NewInt(target)
	pred := &expr.BinOp{Op: expr.OpEq, Typ: types.Bool,
		L: colRef("k", 0, types.Int64),
		R: &expr.Const{Val: eq}}

	b.Run("fullscan", func(b *testing.B) {
		s, tbl := bigTable(b, rows, rows) // k unique: i % rows == i
		p := &plan.Filter{Child: plan.NewScan(tbl, "", s.Snapshot()), Pred: pred}
		ctx := latestContext()
		ctx.Workers = 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := Run(p, ctx)
			if err != nil {
				b.Fatal(err)
			}
			if m.NumRows != 1 {
				b.Fatalf("rows = %d, want 1", m.NumRows)
			}
		}
	})

	b.Run("indexed", func(b *testing.B) {
		_, tbl := indexedBigTable(b, rows, rows)
		p := &plan.IndexScan{Rel: tbl,
			Index: "big_k", Column: "k", Kind: "ORDERED", Eq: &eq, EstRows: 1}
		ctx := latestContext()
		ctx.Workers = 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := Run(p, ctx)
			if err != nil {
				b.Fatal(err)
			}
			if m.NumRows != 1 {
				b.Fatalf("rows = %d, want 1", m.NumRows)
			}
		}
	})
}

// joinOrderTables builds the fact/mid/dim chain used by BenchmarkJoinOrder:
// fact(200k) -> mid(10k) -> dim(100), with a selective filter on dim.
func joinOrderTables(t testing.TB) (*storage.Store, [3]*storage.Table) {
	t.Helper()
	s := storage.NewStore()
	mk := func(name string, schema types.Schema, n int, fill func(b *types.Batch, i int)) *storage.Table {
		tbl, err := s.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		const chunk = 1 << 15
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			b := types.NewBatch(schema)
			for i := lo; i < hi; i++ {
				fill(b, i)
			}
			if err := tx.Insert(tbl, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	fact := mk("fact", types.Schema{
		{Name: "m", Type: types.Int64}, {Name: "v", Type: types.Float64},
	}, 200_000, func(b *types.Batch, i int) {
		b.Cols[0].AppendInt(int64(i % 10_000))
		b.Cols[1].AppendFloat(float64(i))
	})
	mid := mk("mid", types.Schema{
		{Name: "id", Type: types.Int64}, {Name: "d", Type: types.Int64},
	}, 10_000, func(b *types.Batch, i int) {
		b.Cols[0].AppendInt(int64(i))
		b.Cols[1].AppendInt(int64(i % 100))
	})
	dim := mk("dim", types.Schema{
		{Name: "id", Type: types.Int64}, {Name: "flag", Type: types.Int64},
	}, 100, func(b *types.Batch, i int) {
		b.Cols[0].AppendInt(int64(i))
		b.Cols[1].AppendInt(int64(i % 2))
	})
	return s, [3]*storage.Table{fact, mid, dim}
}

// joinOrderPlan writes the query in its worst syntactic order: the two big
// tables joined first, the selective dim filter applied last.
//
//	SELECT count(*) FROM fact JOIN mid ON fact.m = mid.id
//	                          JOIN dim ON mid.d = dim.id WHERE dim.id < 5
func joinOrderPlan(s *storage.Store, t [3]*storage.Table) plan.Node {
	snap := s.Snapshot()
	fact := plan.NewScan(t[0], "", snap) // m, v
	mid := plan.NewScan(t[1], "", snap)  // id, d
	dim := plan.NewScan(t[2], "", snap)  // id, flag

	dimF := &plan.Filter{Child: dim, Pred: &expr.BinOp{Op: expr.OpLt, Typ: types.Bool,
		L: colRef("id", 0, types.Int64),
		R: &expr.Const{Val: types.NewInt(5)}}}

	j1 := &plan.Join{Type: plan.InnerJoin, L: fact, R: mid,
		On: &expr.BinOp{Op: expr.OpEq, Typ: types.Bool,
			L: colRef("m", 0, types.Int64), R: colRef("id", 2, types.Int64)},
		EquiLeft: []int{0}, EquiRight: []int{0}}
	j2 := &plan.Join{Type: plan.InnerJoin, L: j1, R: dimF,
		On: &expr.BinOp{Op: expr.OpEq, Typ: types.Bool,
			L: colRef("d", 3, types.Int64), R: colRef("id", 4, types.Int64)},
		EquiLeft: []int{3}, EquiRight: []int{0}}
	return &plan.Aggregate{Child: j2,
		Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"}}}
}

// BenchmarkJoinOrder quantifies the cost-based join reorder: "as_written"
// executes the plan exactly as the query is phrased (200k x 10k join built
// before the 5-row dim filter restricts anything); "reordered" runs the
// same tree through plan.OptimizeAccess, which starts from the filtered
// dim and keeps every intermediate small.
func BenchmarkJoinOrder(b *testing.B) {
	s, tables := joinOrderTables(b)

	run := func(b *testing.B, p plan.Node) {
		ctx := latestContext()
		ctx.Workers = 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := Run(p, ctx)
			if err != nil {
				b.Fatal(err)
			}
			if got := m.Rows()[0][0].I; got != 10_000 {
				b.Fatalf("count = %d, want 10000", got)
			}
		}
	}

	b.Run("as_written", func(b *testing.B) {
		run(b, joinOrderPlan(s, tables))
	})
	b.Run("reordered", func(b *testing.B) {
		run(b, plan.OptimizeAccess(joinOrderPlan(s, tables), nil))
	})
}
