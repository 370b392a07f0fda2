package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// buildFilterAggPlan is σ(v > 0.5) → Γ(sum(v)) over the benchmark table.
func buildFilterAggPlan(b testing.TB, rows int) plan.Node {
	s, tbl := bigTable(b, rows, 1000)
	pred := &expr.BinOp{Op: expr.OpGt, Typ: types.Bool,
		L: colRef("v", 1, types.Float64),
		R: &expr.Const{Val: types.NewFloat(float64(rows) / 2)}}
	return &plan.Aggregate{
		Child: &plan.Filter{Child: plan.NewScan(tbl, "", s.Snapshot()), Pred: pred},
		Aggs: []plan.AggSpec{{Func: plan.AggSum,
			Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "sum(v)"}},
	}
}

// BenchmarkVectorizedFilterAgg is scan_agg's op_a, SELECT count(*),
// sum(d1), avg(d2) FROM pts WHERE d0 < 0.5, over 1M rows of random DOUBLEs
// at one worker, with each layer of the filter's selection on and off:
// "kernel" selects with the typed select kernel, "evaluated" evaluates the
// comparison into a BOOLEAN column and reads it; "selection" lends the
// survivors to the aggregate as a selection, "gather" copies them out
// first. evaluated+gather is the path before either layer.
func BenchmarkVectorizedFilterAgg(b *testing.B) {
	s, tbl := randomTable(b, 1_000_000, 4)
	d := func(j int) expr.Expr { return colRef(fmt.Sprint("d", j), j, types.Float64) }
	kernel := &expr.BinOp{Op: expr.OpLt, L: d(0), R: &expr.Const{Val: types.NewFloat(0.5)}, Typ: types.Bool}
	// A cast to its own type hides the comparison from the select kernels
	// and compiles to the comparison alone.
	evaluated := &expr.Cast{E: kernel, To: types.Bool}
	for _, pred := range []struct {
		name string
		e    expr.Expr
	}{{"evaluated", evaluated}, {"kernel", kernel}} {
		for _, lend := range []bool{false, true} {
			agg := &plan.Aggregate{
				Child: &plan.Filter{Child: plan.NewScan(tbl, "", s.Snapshot()), Pred: pred.e},
				Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"},
					{Func: plan.AggSum, Arg: d(1), Type: types.Float64, Name: "sum(d1)"},
					{Func: plan.AggAvg, Arg: d(2), Type: types.Float64, Name: "avg(d2)"}},
			}
			name := pred.name + "+gather"
			parts := []part{whole(agg.Child)}
			if lend {
				name, parts = pred.name+"+selection", selecting(parts)
			}
			b.Run(name, func(b *testing.B) {
				ctx := latestContext()
				ctx.Workers = 1
				for range b.N {
					sinks, err := drive(ctx, parts, "", func(int, Operator) (*aggSink, error) { return newAggSink(agg, ctx) })
					if err != nil {
						b.Fatal(err)
					}
					sinks[0].table.release()
					sinks[0].scratch.release()
				}
			})
		}
	}
}

// BenchmarkRowAtATimeFilterAgg is the ablation: the same computation
// performed one row at a time through boxed Values — the execution style
// of the layer-2 UDF world. Comparing against BenchmarkVectorizedFilterAgg
// quantifies the vectorization design choice called out in DESIGN.md §6.
func BenchmarkRowAtATimeFilterAgg(b *testing.B) {
	const rows = 1_000_000
	s, tbl := bigTable(b, rows, 1000)
	snapshot := s.Snapshot()
	threshold := float64(rows) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := tbl.Scan(snapshot, func(batch *types.Batch) error {
			n := batch.Len()
			for r := 0; r < n; r++ {
				row := batch.Row(r) // boxes every column into a Value
				if row[1].AsFloat() > threshold {
					sum += row[1].AsFloat()
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAggScaling sweeps the morsel-parallel aggregation
// worker count.
func BenchmarkParallelAggScaling(b *testing.B) {
	s, tbl := bigTable(b, 1_000_000, 16)
	agg := &plan.Aggregate{
		Child:    plan.NewScan(tbl, "", s.Snapshot()),
		Keys:     []expr.Expr{colRef("k", 0, types.Int64)},
		KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Func: plan.AggSum,
			Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "sum(v)"}},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := latestContext()
			ctx.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(agg, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}

// scalingJoin is 1.6M probe rows against a 100k-row build side, every probe
// row finding one partner.
func scalingJoin(b *testing.B) (join *plan.Join, probeRows int) {
	s, left := bigTable(b, 100_000, 100_000)
	rs, right := bigTable(b, 1_600_000, 100_000)
	return &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(left, "l", s.Snapshot()),
		R:         plan.NewScan(right, "r", rs.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}, 1_600_000
}

// BenchmarkParallelJoinScaling runs the bare join and keeps all 1.6M rows of
// its output. The top-level pipeline is never split, so the probe is one
// part at every worker count; only the 100k-row build is morsel-parallel.
func BenchmarkParallelJoinScaling(b *testing.B) {
	join, _ := scalingJoin(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := latestContext()
			ctx.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(join, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinPipelineAgg drives scan → probe → GROUP BY (16 groups) as one
// pipeline over the same join. The aggregate's parts are the probe's parts,
// so the time per probe row falls with the workers, and B/op is what the
// pipeline allocates per run — a join that materialised its output again
// would show there as ~50 MB more.
func BenchmarkJoinPipelineAgg(b *testing.B) {
	join, probeRows := scalingJoin(b)
	agg := &plan.Aggregate{
		Child: join,
		Keys: []expr.Expr{&expr.BinOp{Op: expr.OpMod, Typ: types.Int64,
			L: colRef("k", 0, types.Int64), R: &expr.Const{Val: types.NewInt(16)}}},
		KeyNames: []string{"g"},
		Aggs: []plan.AggSpec{{Func: plan.AggSum,
			Arg: colRef("v", 3, types.Float64), Type: types.Float64, Name: "sum(v)"}},
	}
	for _, workers := range []int{1, 2, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := latestContext()
			ctx.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(agg, ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probeRows), "ns/probe-row")
		})
	}
}

// BenchmarkBroadcastCross is the k-Means step's n x k relation: 10k rows of
// 11 columns crossed with 5 rows of 12, 23 columns out, under a global
// count so that nothing but the cross product is paid for.
func BenchmarkBroadcastCross(b *testing.B) {
	const n, k = 10_000, 5
	wide := func(name string, rows, cols int) plan.Node {
		s := storage.NewStore()
		schema := make(types.Schema, cols)
		for c := range schema {
			schema[c] = types.ColumnInfo{Name: fmt.Sprint("d", c), Type: types.Float64}
		}
		tbl, err := s.CreateTable(name, schema)
		if err != nil {
			b.Fatal(err)
		}
		batch := types.NewBatch(schema)
		for i := 0; i < rows; i++ {
			for _, col := range batch.Cols {
				col.AppendFloat(float64(i))
			}
		}
		tx := s.Begin()
		if err := tx.Insert(tbl, batch); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		return plan.NewScan(tbl, "", s.Snapshot())
	}
	runPerRow(b, counted(&plan.Join{Type: plan.CrossJoin, L: wide("points", n, 11), R: wide("centres", k, 12)}), n*k)
}

// BenchmarkParallelSortScaling sweeps the worker count of a full sort of 1M
// rows by a unique DOUBLE key: the parts collect their batches in parallel,
// then one stable sort of their concatenation orders the rows.
func BenchmarkParallelSortScaling(b *testing.B) {
	s, tbl := bigTable(b, 1_000_000, 1000) // v column is unique, k repeats
	srt := &plan.Sort{
		Child: plan.NewScan(tbl, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 1, Desc: true}},
		TopK:  -1,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := latestContext()
			ctx.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(srt, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelTopKScaling isolates the fused ORDER BY ... LIMIT 100 over
// 1M rows, where each part keeps only its best 100 rows. "worst-case" orders
// bigTable's unique, ascending v DESC, so every row sorts before the current
// 100th and is admitted; "random" is the shape of scan_agg's top-k statement,
// four uniform DOUBLE columns ordered by one of them DESC, where almost every
// row is turned away by one comparison; "ties" orders k DESC, v over ten
// values of k, so the tenth of the rows that tie the 100th on k go through
// compareRows for v.
func BenchmarkParallelTopKScaling(b *testing.B) {
	s, tbl := bigTable(b, 1_000_000, 1000)
	ts, ties := bigTable(b, 1_000_000, 10)
	rs := storage.NewStore()
	pts, err := rs.CreateTable("pts", types.Schema{{Name: "d0", Type: types.Float64}, {Name: "d1", Type: types.Float64},
		{Name: "d2", Type: types.Float64}, {Name: "d3", Type: types.Float64}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tx := rs.Begin()
	for lo := 0; lo < 1_000_000; lo += 1 << 15 {
		batch := types.NewBatch(pts.Schema())
		for i := lo; i < min(lo+1<<15, 1_000_000); i++ {
			for _, c := range batch.Cols {
				c.AppendFloat(rng.Float64())
			}
		}
		if err := tx.Insert(pts, batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		srt  *plan.Sort
	}{
		{"worst-case", &plan.Sort{Child: plan.NewScan(tbl, "", s.Snapshot()), Keys: []plan.SortKey{{Col: 1, Desc: true}}, TopK: 100}},
		{"random", &plan.Sort{Child: plan.NewScan(pts, "", rs.Snapshot()), Keys: []plan.SortKey{{Col: 2, Desc: true}}, TopK: 100}},
		{"ties", &plan.Sort{Child: plan.NewScan(ties, "", ts.Snapshot()), Keys: []plan.SortKey{{Col: 0, Desc: true}, {Col: 1}}, TopK: 100}},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(tc.name+"/"+benchName(workers), func(b *testing.B) {
				ctx := latestContext()
				ctx.Workers = workers
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(tc.srt, ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// runPerRow runs p serially b.N times and reports the time per row of rows,
// the unit the hash operators' inner loops are judged in.
func runPerRow(b *testing.B, p plan.Node, rows int) {
	ctx := latestContext()
	ctx.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkHashAgg measures hash aggregation per input row over 1M rows:
// 1000 groups by an integer key (dense, so addressed directly), by the same
// keys times a large odd number (sparse, so hashed), by two integer keys, by
// a string key, and the key-less global aggregate that never touches the key
// table.
func BenchmarkHashAgg(b *testing.B) {
	const rows = 1_000_000
	s := storage.NewStore()
	tbl, err := s.CreateTable("t", types.Schema{
		{Name: "k", Type: types.Int64}, {Name: "s", Type: types.String}, {Name: "v", Type: types.Float64},
		{Name: "sparse", Type: types.Int64}})
	if err != nil {
		b.Fatal(err)
	}
	tx := s.Begin()
	for lo := 0; lo < rows; lo += 1 << 15 {
		batch := types.NewBatch(tbl.Schema())
		for i := lo; i < min(lo+1<<15, rows); i++ {
			batch.Cols[0].AppendInt(int64(i % 1000))
			batch.Cols[1].AppendString(fmt.Sprint("group-", i%1000))
			batch.Cols[2].AppendFloat(float64(i))
			batch.Cols[3].AppendInt(int64(i%1000) * 1_000_003)
		}
		if err := tx.Insert(tbl, batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	k, str, v := colRef("k", 0, types.Int64), colRef("s", 1, types.String), colRef("v", 2, types.Float64)
	kMod10 := &expr.BinOp{Op: expr.OpMod, Typ: types.Int64, L: k, R: &expr.Const{Val: types.NewInt(10)}}
	sparse := colRef("sparse", 3, types.Int64)
	for _, tc := range []struct {
		name string
		keys []expr.Expr
	}{{"int-key", []expr.Expr{k}}, {"sparse-int-key", []expr.Expr{sparse}}, {"two-keys", []expr.Expr{k, kMod10}},
		{"string-key", []expr.Expr{str}}, {"global", nil}} {
		b.Run(tc.name, func(b *testing.B) {
			runPerRow(b, &plan.Aggregate{
				Child: plan.NewScan(tbl, "", s.Snapshot()),
				Keys:  tc.keys, KeyNames: make([]string, len(tc.keys)),
				Aggs: []plan.AggSpec{
					{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"},
					{Func: plan.AggSum, Arg: v, Type: types.Float64, Name: "sum(v)"}},
			}, rows)
		})
	}
}

// BenchmarkHashJoin measures the equi-join per row of the side named: the
// build of 1M distinct keys (per build row) dense, so addressed directly,
// and sparse, so hashed; a probe where every row finds one partner and one
// where it finds 32 (per probe row), and a left join half of whose probe
// rows are NULL-extended (per probe row).
func BenchmarkHashJoin(b *testing.B) {
	for _, tc := range []struct {
		name        string
		typ         plan.JoinType
		lRows, lMod int
		rRows, rMod int
		perLeftRow  bool  // the side the time is divided by
		scale       int64 // of both sides' keys
	}{
		{"build", plan.InnerJoin, 1_000_000, 1_000_000, 1, 1, true, 1},
		{"build-sparse", plan.InnerJoin, 1_000_000, 1_000_000, 1, 1, true, 1_000_003},
		{"probe-1:1", plan.InnerJoin, 10_000, 10_000, 1_000_000, 10_000, false, 1},
		{"probe-1:32", plan.InnerJoin, 32_000, 1000, 100_000, 1000, false, 1},
		{"left-join", plan.LeftJoin, 1_000_000, 20_000, 10_000, 10_000, true, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ls, left := scaledTable(b, tc.lRows, tc.lMod, tc.scale)
			rs, right := scaledTable(b, tc.rRows, tc.rMod, tc.scale)
			rows := tc.rRows
			if tc.perLeftRow {
				rows = tc.lRows
			}
			runPerRow(b, &plan.Join{Type: tc.typ,
				L: plan.NewScan(left, "l", ls.Snapshot()), R: plan.NewScan(right, "r", rs.Snapshot()),
				EquiLeft: []int{0}, EquiRight: []int{0}}, rows)
		})
	}
}

// BenchmarkProjectArith measures the expression kernels in a projection,
// per row: scan_agg's GROUP BY key cast(floor(d0 * 100) AS BIGINT), and the
// k-Means step's 10-term distance (d0 - d10)^2 + … + (d9 - d19)^2, each over
// arithRows rows of 20 DOUBLE columns under a global count.
func BenchmarkProjectArith(b *testing.B) {
	s, tbl := arithTable(b)
	d := func(j int) expr.Expr { return colRef(fmt.Sprint("d", j), j, types.Float64) }
	bucket := &expr.Cast{To: types.Int64, E: &expr.FuncCall{Name: "floor", Typ: types.Float64,
		Args: []expr.Expr{&expr.BinOp{Op: expr.OpMul, L: d(0), R: &expr.Const{Val: types.NewFloat(100)}, Typ: types.Float64}}}}
	for _, tc := range []struct {
		name string
		e    expr.Expr
	}{{"cast-floor", bucket}, {"distance", distanceExpr()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			runPerRow(b, counted(&plan.Project{Child: plan.NewScan(tbl, "", s.Snapshot()),
				Exprs: []expr.Expr{tc.e}, Names: []string{tc.name}}), arithRows)
		})
	}
}

// arithRows is the size of arithTable.
const arithRows = 100_000

// arithTable is a table of arithRows rows of 20 random DOUBLE columns,
// d0 … d19.
func arithTable(tb testing.TB) (*storage.Store, *storage.Table) {
	return randomTable(tb, arithRows, 20)
}

// randomTable is a table pts of rows rows of cols DOUBLE columns, d0, d1,
// …, uniform in [0, 1).
func randomTable(tb testing.TB, rows, cols int) (*storage.Store, *storage.Table) {
	s := storage.NewStore()
	schema := make(types.Schema, cols)
	for c := range schema {
		schema[c] = types.ColumnInfo{Name: fmt.Sprint("d", c), Type: types.Float64}
	}
	tbl, err := s.CreateTable("pts", schema)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := types.NewBatch(schema)
	for i := 0; i < rows; i++ {
		for _, c := range batch.Cols {
			c.AppendFloat(rng.Float64())
		}
	}
	tx := s.Begin()
	if err := tx.Insert(tbl, batch); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return s, tbl
}

// distanceExpr is the k-Means step's squared distance between the first
// ten columns of arithTable and the last ten: (d0 - d10)^2 + … + (d9 - d19)^2.
func distanceExpr() expr.Expr {
	d := func(j int) expr.Expr { return colRef(fmt.Sprint("d", j), j, types.Float64) }
	arith := func(op expr.Op, l, r expr.Expr) expr.Expr { return &expr.BinOp{Op: op, L: l, R: r, Typ: types.Float64} }
	term := func(j int) expr.Expr {
		return arith(expr.OpPow, arith(expr.OpSub, d(j), d(10+j)), &expr.Const{Val: types.NewFloat(2)})
	}
	dist := term(0)
	for j := 1; j < 10; j++ {
		dist = arith(expr.OpAdd, dist, term(j))
	}
	return dist
}
