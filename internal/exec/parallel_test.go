package exec

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// nullableTable builds a table of n rows (k BIGINT, v DOUBLE) with
// k = i % mod and a NULL key every nullEvery-th row (0 = no NULLs).
func nullableTable(t testing.TB, s *storage.Store, name string, n, mod, nullEvery int) *storage.Table {
	t.Helper()
	tbl, err := s.CreateTable(name, types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	const chunk = 1 << 14
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		b := types.NewBatch(tbl.Schema())
		for i := lo; i < hi; i++ {
			if nullEvery > 0 && i%nullEvery == 0 {
				b.Cols[0].AppendNull()
			} else {
				b.Cols[0].AppendInt(int64(i % mod))
			}
			b.Cols[1].AppendFloat(float64(i))
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

// rowLess is a total order over value rows (NULLs first) used to normalize
// unordered results before comparison.
func rowLess(a, b []types.Value) bool {
	for i := range a {
		if a[i].Null != b[i].Null {
			return a[i].Null
		}
		if a[i].Null {
			continue
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

// runWithWorkers executes p under the given parallelism degree, with extra
// working-table bindings if any.
func runWithWorkers(t *testing.T, p plan.Node, workers int, bindings map[string]*Materialized) *Materialized {
	t.Helper()
	ctx := NewContext()
	ctx.Workers = workers
	for name, m := range bindings {
		ctx.Bindings[name] = m
	}
	out, err := Run(p, ctx)
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return out
}

// assertSameRows compares two results row-by-row. With ordered=false both
// sides are sorted into a canonical order first.
func assertSameRows(t *testing.T, serial, parallel *Materialized, ordered bool) {
	t.Helper()
	sr, pr := serial.Rows(), parallel.Rows()
	if len(sr) != len(pr) {
		t.Fatalf("row counts differ: serial %d parallel %d", len(sr), len(pr))
	}
	if !ordered {
		sortRows(sr)
		sortRows(pr)
	}
	for i := range sr {
		for j := range sr[i] {
			a, b := sr[i][j], pr[i][j]
			if a.Null != b.Null || (!a.Null && !a.Equal(b)) {
				t.Fatalf("row %d col %d: serial %v parallel %v", i, j, a, b)
			}
		}
	}
}

func sortRows(rows [][]types.Value) {
	// insertion-free: use sort.Slice via helper to avoid importing sort here
	quickSortRows(rows, 0, len(rows)-1)
}

func quickSortRows(rows [][]types.Value, lo, hi int) {
	for lo < hi {
		p := rows[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for rowLess(rows[i], p) {
				i++
			}
			for rowLess(p, rows[j]) {
				j--
			}
			if i <= j {
				rows[i], rows[j] = rows[j], rows[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortRows(rows, lo, j)
			lo = i
		} else {
			quickSortRows(rows, i, hi)
			hi = j
		}
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	s := storage.NewStore()
	l := nullableTable(t, s, "l", 40_000, 20_000, 97)
	r := nullableTable(t, s, "r", 30_000, 20_000, 89)
	join := &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(l, "l", s.Snapshot()),
		R:         plan.NewScan(r, "r", s.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	serial := runWithWorkers(t, join, 1, nil)
	parallel := runWithWorkers(t, join, 8, nil)
	if serial.NumRows == 0 {
		t.Fatal("join produced no rows; test data broken")
	}
	// The parallel probe concatenates per-morsel outputs in morsel order,
	// which reproduces the serial probe order exactly.
	assertSameRows(t, serial, parallel, true)
}

func TestParallelLeftJoinNullKeysMatchesSerial(t *testing.T) {
	s := storage.NewStore()
	l := nullableTable(t, s, "l", 40_000, 35_000, 11) // many unmatched + NULL keys
	r := nullableTable(t, s, "r", 20_000, 35_000, 13)
	join := &plan.Join{
		Type:      plan.LeftJoin,
		L:         plan.NewScan(l, "l", s.Snapshot()),
		R:         plan.NewScan(r, "r", s.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	serial := runWithWorkers(t, join, 1, nil)
	parallel := runWithWorkers(t, join, 8, nil)
	if serial.NumRows < 40_000 {
		t.Fatalf("left join must keep all %d left rows, got %d", 40_000, serial.NumRows)
	}
	assertSameRows(t, serial, parallel, false)
}

func TestParallelJoinEmptyInputs(t *testing.T) {
	s := storage.NewStore()
	big := nullableTable(t, s, "big", 40_000, 1000, 0)
	empty, err := s.CreateTable("empty", types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		l, r *storage.Table
	}{
		{"empty-build", empty, big},
		{"empty-probe", big, empty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			join := &plan.Join{
				Type:      plan.InnerJoin,
				L:         plan.NewScan(tc.l, "l", s.Snapshot()),
				R:         plan.NewScan(tc.r, "r", s.Snapshot()),
				EquiLeft:  []int{0},
				EquiRight: []int{0},
			}
			for _, w := range []int{1, 8} {
				if got := runWithWorkers(t, join, w, nil); got.NumRows != 0 {
					t.Errorf("workers=%d: rows = %d, want 0", w, got.NumRows)
				}
			}
		})
	}
}

func TestParallelSortMatchesSerial(t *testing.T) {
	s := storage.NewStore()
	tbl := nullableTable(t, s, "t", 50_000, 100, 17) // heavy key duplication + NULLs
	srt := &plan.Sort{
		Child: plan.NewScan(tbl, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 0, Desc: false}, {Col: 1, Desc: true}},
		TopK:  -1,
	}
	serial := runWithWorkers(t, srt, 1, nil)
	parallel := runWithWorkers(t, srt, 8, nil)
	if serial.NumRows != 50_000 {
		t.Fatalf("sort dropped rows: %d", serial.NumRows)
	}
	// Sorted output must match in exact order (the merge is stable).
	assertSameRows(t, serial, parallel, true)
}

func TestParallelTopKMatchesSerial(t *testing.T) {
	s := storage.NewStore()
	tbl := nullableTable(t, s, "t", 60_000, 60_000, 0)
	// ORDER BY v DESC LIMIT 20 OFFSET 5, as the optimizer fuses it: a
	// TopK(25) sort under a Limit node.
	srt := &plan.Sort{
		Child: plan.NewScan(tbl, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 1, Desc: true}},
		TopK:  25,
	}
	lim := &plan.Limit{Child: srt, N: 20, Offset: 5}
	serial := runWithWorkers(t, lim, 1, nil)
	parallel := runWithWorkers(t, lim, 8, nil)
	if serial.NumRows != 20 {
		t.Fatalf("top-k rows = %d, want 20", serial.NumRows)
	}
	assertSameRows(t, serial, parallel, true)
	// Spot-check the actual values: best v is 59999, offset skips 5.
	if got := serial.Rows()[0][1].F; got != 59994 {
		t.Errorf("first row v = %v, want 59994", got)
	}
}

func TestParallelTopKEmptyInput(t *testing.T) {
	s := storage.NewStore()
	empty, err := s.CreateTable("empty", types.Schema{{Name: "v", Type: types.Float64}})
	if err != nil {
		t.Fatal(err)
	}
	srt := &plan.Sort{
		Child: plan.NewScan(empty, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 0}},
		TopK:  10,
	}
	for _, w := range []int{1, 8} {
		if got := runWithWorkers(t, srt, w, nil); got.NumRows != 0 {
			t.Errorf("workers=%d: rows = %d, want 0", w, got.NumRows)
		}
	}
}

// TestParallelWorkingTableBody runs sort and join pipelines rooted at a
// bound working table — the shape of an ITERATE / recursive CTE body — and
// checks the morsel split over the working table matches serial execution.
func TestParallelWorkingTableBody(t *testing.T) {
	s := storage.NewStore()
	base := nullableTable(t, s, "base", 30_000, 5000, 0)

	// Bind a 50k-row working table.
	working := &Materialized{Schema: types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	}}
	for lo := 0; lo < 50_000; lo += 10_000 {
		b := types.NewBatch(working.Schema)
		for i := lo; i < lo+10_000; i++ {
			b.Cols[0].AppendInt(int64(i % 5000))
			b.Cols[1].AppendFloat(float64(i))
		}
		working.Append(b)
	}
	bindings := map[string]*Materialized{"iterate": working}
	ws := func() *plan.WorkingScan {
		return &plan.WorkingScan{Name: "iterate", Sch: working.Schema, CardEst: 50_000}
	}

	t.Run("sort", func(t *testing.T) {
		srt := &plan.Sort{Child: ws(), Keys: []plan.SortKey{{Col: 1, Desc: true}}, TopK: -1}
		serial := runWithWorkers(t, srt, 1, bindings)
		parallel := runWithWorkers(t, srt, 8, bindings)
		assertSameRows(t, serial, parallel, true)
	})
	t.Run("join", func(t *testing.T) {
		join := &plan.Join{
			Type:      plan.InnerJoin,
			L:         plan.NewScan(base, "b", s.Snapshot()),
			R:         ws(),
			EquiLeft:  []int{0},
			EquiRight: []int{0},
		}
		serial := runWithWorkers(t, join, 1, bindings)
		parallel := runWithWorkers(t, join, 8, bindings)
		if serial.NumRows == 0 {
			t.Fatal("join produced no rows")
		}
		// Build insertion order and probe morsel order both reproduce the
		// serial order, so the comparison can demand exact equality.
		assertSameRows(t, serial, parallel, true)
	})
	t.Run("split-covers-all-rows", func(t *testing.T) {
		ctx := NewContext()
		ctx.Bindings["iterate"] = working
		parts := splitParallel(ws(), 4, ctx)
		if len(parts) < 2 {
			t.Fatalf("working scan should split, got %d parts", len(parts))
		}
		total := 0
		for _, p := range parts {
			m, err := Run(p, ctx)
			if err != nil {
				t.Fatal(err)
			}
			total += m.NumRows
		}
		if total != 50_000 {
			t.Errorf("parts cover %d rows, want 50000", total)
		}
	})
}

func TestContextWorkersClamped(t *testing.T) {
	ctx := &Context{Workers: 0, Bindings: map[string]*Materialized{}}
	if got := ctx.workers(); got != 1 {
		t.Errorf("workers() with Workers=0 = %d, want 1", got)
	}
	ctx.Workers = -3
	if got := ctx.workers(); got != 1 {
		t.Errorf("workers() with Workers=-3 = %d, want 1", got)
	}
	var nilCtx *Context
	if got := nilCtx.workers(); got != 1 {
		t.Errorf("nil context workers() = %d, want 1", got)
	}
}

func TestSplitPipelineDegenerate(t *testing.T) {
	s, tbl := bigTable(t, 50_000, 3)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	if parts := plan.SplitPipeline(scan, 50_000, 1, 8192); parts != nil {
		t.Errorf("parts=1 must not split, got %d", len(parts))
	}
	if parts := plan.SplitPipeline(scan, 10_000, 8, 8192); parts != nil {
		t.Errorf("small input must not split, got %d", len(parts))
	}
}

// TestRunPartsPool exercises the bounded worker pool under -race: disjoint
// result slots, more parts than workers.
func TestRunPartsPool(t *testing.T) {
	const n = 1000
	out := make([]int64, n)
	err := runParts(&Context{Workers: 8}, n, func(i int) error {
		out[i] = int64(i) * 2
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != int64(i)*2 {
			t.Fatalf("slot %d = %d", i, out[i])
		}
	}
}

func TestRunPartsErrorPropagation(t *testing.T) {
	const n = 50
	ran := make([]atomic.Bool, n)
	err := runParts(&Context{Workers: 8}, n, func(i int) error {
		ran[i].Store(true)
		if i == 7 || i == 23 {
			return fmt.Errorf("part %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "part 7 failed" {
		t.Fatalf("want lowest-indexed error 'part 7 failed', got %v", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("part %d never ran", i)
		}
	}
}

// TestJoinPipelineMatchesSerial: a join is a stage of the pipeline that
// streams past it, so whoever drives that pipeline — a materialisation, an
// aggregate, a sort — runs scan → join → … as morsels, and a LIMIT stops it
// early. Every driver must give at Workers=8 what it gives at Workers=1, and
// an inner join's own output keeps its order: probe order, then build-row
// order. (A left join emits each probe batch's unmatched rows after its
// matched ones, so its order follows the batch boundaries, which morsels
// move; its rows are compared as a set.)
func TestJoinPipelineMatchesSerial(t *testing.T) {
	s := storage.NewStore()
	l := nullableTable(t, s, "l", 40_000, 20_000, 97)
	r := nullableTable(t, s, "r", 30_000, 20_000, 89)
	few := nullableTable(t, s, "few", 40, 40, 7)
	scan := func(tbl *storage.Table) plan.Node { return plan.NewScan(tbl, tbl.Name(), s.Snapshot()) }
	// Over (k, v, k, v): the streamed row's partner must have the larger v.
	vLess := func(a, b int) expr.Expr {
		return &expr.BinOp{Op: expr.OpLt, Typ: types.Bool, L: colRef("v", a, types.Float64), R: colRef("v", b, types.Float64)}
	}
	joins := map[string]*plan.Join{
		"inner-hash-residual": {Type: plan.InnerJoin, L: scan(r), R: scan(l),
			EquiLeft: []int{0}, EquiRight: []int{0}, Residual: vLess(3, 1)},
		"left-hash-residual-null-keys": {Type: plan.LeftJoin, L: scan(l), R: scan(r),
			EquiLeft: []int{0}, EquiRight: []int{0}, Residual: vLess(1, 3)},
		"left-nested-loop": {Type: plan.LeftJoin, L: scan(l), R: scan(few),
			On: &expr.BinOp{Op: expr.OpLt, Typ: types.Bool, L: colRef("k", 0, types.Int64), R: colRef("k", 2, types.Int64)}},
	}
	for name, join := range joins {
		ordered := join.Type == plan.InnerJoin
		k, v, v2 := colRef("k", 0, types.Int64), colRef("v", 1, types.Float64), colRef("v", 3, types.Float64)
		drivers := map[string]plan.Node{
			"aggregate": &plan.Aggregate{Child: join, Keys: []expr.Expr{k}, KeyNames: []string{"k"}, Aggs: []plan.AggSpec{
				{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"},
				{Func: plan.AggSum, Arg: v, Type: types.Float64, Name: "sum(v)"},
				{Func: plan.AggMin, Arg: v2, Type: types.Float64, Name: "min(v)"},
				{Func: plan.AggMax, Arg: v2, Type: types.Float64, Name: "max(v)"}}},
			"sort":  &plan.Sort{Child: join, Keys: []plan.SortKey{{Col: 1}, {Col: 3, Desc: true}, {Col: 2}}, TopK: -1},
			"limit": &plan.Limit{Child: join, N: 3000, Offset: 17},
		}
		for driver, p := range drivers {
			t.Run(name+"/"+driver, func(t *testing.T) {
				serial := runWithWorkers(t, p, 1, nil)
				if serial.NumRows == 0 {
					t.Fatal("no rows; test data broken")
				}
				assertSameRows(t, serial, runWithWorkers(t, p, 8, nil), ordered || driver == "sort")
			})
		}
		t.Run(name+"/materialise", func(t *testing.T) {
			var outs [2]*Materialized
			for i, workers := range []int{1, 8} {
				ctx := NewContext()
				ctx.Workers = workers
				parts := partsOf(join, ctx)
				if (len(parts) > 1) != (workers > 1) {
					t.Fatalf("workers=%d: the join pipeline runs as %d parts", workers, len(parts))
				}
				var err error
				if outs[i], err = materialize(parts, ctx); err != nil {
					t.Fatal(err)
				}
			}
			if outs[0].NumRows < 5000 {
				t.Fatalf("%d rows; test data broken", outs[0].NumRows)
			}
			assertSameRows(t, outs[0], outs[1], ordered)
		})
	}
}

// TestIterateBuildsInvariantJoinSideOnce: a join inside a loop body keeps
// its blocking side across rounds when that side reads no working table —
// its subtree executes once, however many rounds probe it — and rebuilds it
// every round when it does. The plan is not touched either way.
func TestIterateBuildsInvariantJoinSideOnce(t *testing.T) {
	s, big := bigTable(t, 20_000, 20_000) // k unique
	sch := types.Schema{{Name: "k", Type: types.Int64}}
	working := func() plan.Node { return &plan.WorkingScan{Name: "iterate", Sch: sch} }
	k := colRef("k", 0, types.Int64)
	next := []expr.Expr{&expr.BinOp{Op: expr.OpAdd, Typ: types.Int64, L: k, R: &expr.Const{Val: types.NewInt(1)}}}
	const rounds = 6
	iterate := func(step plan.Node) *plan.Iterate {
		return &plan.Iterate{MaxDepth: 100,
			Init: &plan.Values{Sch: sch, Rows: [][]types.Value{{types.NewInt(0)}}},
			Step: step,
			Stop: &plan.Filter{Child: working(), Pred: &expr.BinOp{Op: expr.OpGe, Typ: types.Bool, L: k, R: &expr.Const{Val: types.NewInt(rounds)}}},
		}
	}
	invariant := plan.NewScan(big, "big", s.Snapshot())
	for _, tc := range []struct {
		name     string
		it       *plan.Iterate
		blocking plan.Node
		builds   int64
	}{
		{"invariant-side", iterate(&plan.Project{Exprs: next, Names: []string{"k"}, Child: &plan.Join{Type: plan.LeftJoin,
			L: working(), R: invariant, EquiLeft: []int{0}, EquiRight: []int{0}}}), invariant, 1},
		{"working-side", func() *plan.Iterate {
			w := working()
			return iterate(&plan.Project{Exprs: next, Names: []string{"k"}, Child: &plan.Join{Type: plan.InnerJoin,
				L: w, R: plan.NewScan(big, "big", s.Snapshot()), EquiLeft: []int{0}, EquiRight: []int{0}}})
		}(), nil, rounds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocking := tc.blocking
			if blocking == nil {
				blocking, _ = tc.it.Step.(*plan.Project).Child.(*plan.Join).Sides()
			}
			before := plan.ExplainTree(tc.it)
			ctx := NewContext()
			ctx.Workers = 1
			sc := ctx.EnableStats()
			out, err := Run(tc.it, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rows := out.Rows(); len(rows) != 1 || rows[0][0].I != rounds {
				t.Fatalf("result %v, want one row holding %d", rows, rounds)
			}
			if got := sc.Tree(blocking).Instances; got != tc.builds {
				t.Errorf("the blocking side executed %d times over %d rounds, want %d", got, rounds, tc.builds)
			}
			if after := plan.ExplainTree(tc.it); after != before {
				t.Errorf("EXPLAIN changed:\n%s\nwas\n%s", after, before)
			}
		})
	}
}

// TestJoinFaultPointsPerBuildAndProbeBatch: exec.join.build fires once per
// table built, not once per part that probes it; exec.join.probe fires
// before every pull on the probe side, in every part.
func TestJoinFaultPointsPerBuildAndProbeBatch(t *testing.T) {
	defer faultinject.Reset()
	s := storage.NewStore()
	small := nullableTable(t, s, "small", 100, 100, 0)
	big := nullableTable(t, s, "big", 60_000, 1000, 0)
	join := &plan.Join{Type: plan.InnerJoin, L: plan.NewScan(small, "", s.Snapshot()), R: plan.NewScan(big, "", s.Snapshot()),
		EquiLeft: []int{0}, EquiRight: []int{0}}
	for _, workers := range []int{1, 8} {
		var builds, probes, scanned atomic.Int64
		count := func(n *atomic.Int64) func() error { return func() error { n.Add(1); return nil } }
		faultinject.Set("exec.join.build", count(&builds))
		faultinject.Set("exec.join.probe", count(&probes))
		faultinject.Set("exec.scan.batch", count(&scanned))
		ctx := NewContext()
		ctx.Workers = workers
		parts := int64(len(partsOf(join, ctx)))
		if _, err := Run(counted(join), ctx); err != nil {
			t.Fatal(err)
		}
		// The build side is one batch; every other batch scanned is probed,
		// and each part pulls once more to find its input exhausted.
		if want := scanned.Load() - 1 + parts; builds.Load() != 1 || probes.Load() != want {
			t.Errorf("workers=%d (%d parts): exec.join.build fired %d times, want 1; exec.join.probe %d times, want %d",
				workers, parts, builds.Load(), probes.Load(), want)
		}
	}
}

// TestLoopInBlockingSideBuildsOnce: the parts of a pipeline meet at one cache
// entry for a join's blocking side whenever they arrive — also when that side
// is itself a loop, whose rounds come and go while it is computed. A round
// runs under a context of its own, so the loop moves neither the epoch nor
// the bindings its sibling parts read. GOMAXPROCS(1) makes the late arrival
// the rule: the part that computes the build runs the whole loop before the
// others have asked.
func TestLoopInBlockingSideBuildsOnce(t *testing.T) {
	s, big := bigTable(t, 60_000, 60_000) // k unique
	sch := types.Schema{{Name: "k", Type: types.Int64}}
	k := colRef("k", 0, types.Int64)
	lit := func(n int64) expr.Expr { return &expr.Const{Val: types.NewInt(n)} }
	working := func() plan.Node { return &plan.WorkingScan{Name: "iterate", Sch: sch} }
	// loop runs rounds times over init, adding 1 to every k in each.
	loop := func(init plan.Node, below int64) *plan.Iterate {
		return &plan.Iterate{MaxDepth: 1000, Init: init,
			Step: &plan.Project{Child: working(), Names: []string{"k"},
				Exprs: []expr.Expr{&expr.BinOp{Op: expr.OpAdd, Typ: types.Int64, L: k, R: lit(1)}}},
			Stop: &plan.Filter{Child: working(), Pred: &expr.BinOp{Op: expr.OpGe, Typ: types.Bool, L: k, R: lit(below)}}}
	}
	probe := func(blocking plan.Node) plan.Node {
		return counted(&plan.Join{Type: plan.InnerJoin, L: blocking, R: plan.NewScan(big, "big", s.Snapshot()),
			EquiLeft: []int{0}, EquiRight: []int{0}})
	}
	const inner, outer = 50, 3
	one := &plan.Values{Sch: sch, Rows: [][]types.Value{{types.NewInt(0)}}}
	whole := loop(one, inner)
	// The inner loop starts from the outer working table, so the join that
	// holds it is rebuilt every outer round — once, not once per part. The
	// outer step adds the one row the probe finds to its k.
	nested := loop(working(), inner)
	outerStep := &plan.Project{Names: []string{"k"},
		Exprs: []expr.Expr{&expr.BinOp{Op: expr.OpAdd, Typ: types.Int64, L: k, R: colRef("count(*)", 1, types.Int64)}},
		Child: &plan.Join{Type: plan.CrossJoin, L: working(), R: probe(nested)}}
	for _, tc := range []struct {
		name   string
		plan   plan.Node
		loop   plan.Node
		builds int64
		want   int64
	}{
		{"whole-loop", probe(whole), whole, 1, 1},
		{"loop-over-outer-working-table", &plan.Iterate{MaxDepth: 100, Init: one, Step: outerStep,
			Stop: &plan.Filter{Child: working(), Pred: &expr.BinOp{Op: expr.OpGe, Typ: types.Bool, L: k, R: lit(outer)}}}, nested, outer, outer},
	} {
		for _, procs := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				ctx := NewContext()
				ctx.Workers = 8
				sc := ctx.EnableStats()
				out, err := Run(tc.plan, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rows := out.Rows(); len(rows) != 1 || rows[0][0].I != tc.want {
					t.Fatalf("result %v, want one row holding %d", rows, tc.want)
				}
				if got := sc.Tree(tc.loop).Instances; got != tc.builds {
					t.Errorf("the loop in the blocking side ran %d times, want %d", got, tc.builds)
				}
				if used := ctx.MemoryUsed(); used < 0 {
					t.Errorf("%d bytes in use after the statement: something was released twice", used)
				}
			})
		}
	}
}
