package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// keeper keeps every batch it is handed: through types.Retain, as every
// keeper must, or — to show what poison mode catches — without it.
type keeper struct {
	retain  bool
	batches []*types.Batch
}

func (k *keeper) consume(b *types.Batch) error {
	if k.retain {
		b = types.Retain(b)
	}
	k.batches = append(k.batches, b)
	return nil
}

// keptRows drives p into keepers and returns the rows they kept, read after
// every operator has closed.
func keptRows(t *testing.T, p plan.Node, workers int, retain bool) [][]types.Value {
	t.Helper()
	ctx := latestContext()
	ctx.Workers = workers
	sinks, err := drive(ctx, partsOf(p, ctx), "", func(int, Operator) (*keeper, error) {
		return &keeper{retain: retain}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for _, s := range sinks {
		for _, b := range s.batches {
			for i := range b.Len() {
				rows = append(rows, b.Row(i))
			}
		}
	}
	return rows
}

// poisoned reports whether a row holds a value poison mode writes.
func poisoned(row []types.Value) bool {
	for _, v := range row {
		switch {
		case v.Null && v.T != types.Unknown,
			v.T == types.Float64 && math.IsNaN(v.F),
			v.T == types.Int64 && v.I == math.MinInt64,
			v.T == types.String && v.S == types.PoisonString:
			return true
		}
	}
	return false
}

// TestPoisonCatchesAKeeperThatSkipsRetain: a sink that keeps borrowed
// batches without types.Retain reads poison once the operators that lent
// them have closed — over a hash join, whose output is gathered into its
// buffers, and over a k-Means distance projection, whose pass-through
// columns are a cross join's. Through Retain it keeps exactly what Run
// materializes. So poison mode looks where the reused storage is.
func TestPoisonCatchesAKeeperThatSkipsRetain(t *testing.T) {
	s := storage.NewStore()
	build := nullableTable(t, s, "build", 2_000, 1_000, 0) // every key twice
	probe := nullableTable(t, s, "probe", 20_000, 1_500, 0)
	hashJoin := &plan.Join{Type: plan.InnerJoin, L: plan.NewScan(build, "b", s.Snapshot()),
		R: plan.NewScan(probe, "p", s.Snapshot()), EquiLeft: []int{0}, EquiRight: []int{0}}

	_, pts := arithTable(t)
	centres := &plan.Values{Sch: pts.Schema()[10:], Rows: make([][]types.Value, 3)}
	for c := range centres.Rows {
		for j := range 10 {
			centres.Rows[c] = append(centres.Rows[c], types.NewFloat(float64(c+j)/10))
		}
	}
	points := &plan.Project{Child: plan.NewScan(pts, "", s.Snapshot()), Names: make([]string, 10)}
	for j := range 10 {
		points.Exprs = append(points.Exprs, colRef(fmt.Sprint("d", j), j, types.Float64))
		points.Names[j] = fmt.Sprint("d", j)
	}
	distances := &plan.Project{Child: &plan.Join{Type: plan.CrossJoin, L: points, R: centres},
		Exprs: []expr.Expr{colRef("d0", 0, types.Float64), colRef("d10", 10, types.Float64), distanceExpr()},
		Names: []string{"d0", "c0", "dist"}}

	for _, tc := range []struct {
		name string
		plan plan.Node
	}{{"hash join", hashJoin}, {"distance projection", distances}} {
		for _, workers := range []int{1, 8} {
			ctx := latestContext()
			ctx.Workers = workers
			want, err := Run(tc.plan, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want.NumRows == 0 {
				t.Fatalf("%s: no rows", tc.name)
			}
			kept := keptRows(t, tc.plan, workers, true)
			if fmt.Sprint(kept) != fmt.Sprint(want.Rows()) {
				t.Errorf("%s, workers=%d: a keeper through Retain kept other rows than Run's", tc.name, workers)
			}
			bad := 0
			for _, row := range keptRows(t, tc.plan, workers, false) {
				if poisoned(row) {
					bad++
				}
			}
			if bad == 0 {
				t.Errorf("%s, workers=%d: a keeper that skips Retain read no poison", tc.name, workers)
			}
		}
	}
}

// TestDistanceProjectionAllocBudget: the k-Means distance, 29 inner nodes
// over 20 columns, allocates at most 16 bytes a row in a projection — its
// result column (8 B) and per-batch headers; the inner nodes reuse their
// buffers.
func TestDistanceProjectionAllocBudget(t *testing.T) {
	s, tbl := arithTable(t)
	p := counted(&plan.Project{Child: plan.NewScan(tbl, "", s.Snapshot()),
		Exprs: []expr.Expr{distanceExpr()}, Names: []string{"dist"}})
	ctx := latestContext()
	ctx.Workers = 1
	run := func() {
		if _, err := Run(p, ctx); err != nil {
			t.Fatal(err)
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
	if perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / arithRows; perRow > 16 {
		t.Errorf("distance projection allocates %.1f B/row, budget 16", perRow)
	}
}

// TestWarmJoinProbeAndAggregateAllocateNothing: once a hash-join probe and
// the aggregate over it have seen their first batches, a further probe
// batch — 1,024 rows, each finding two partners, gathered into 2,048 output
// rows and folded into 16 groups — allocates nothing: the match pairs, the
// gathered columns and the key and argument expressions all reuse buffers.
func TestWarmJoinProbeAndAggregateAllocateNothing(t *testing.T) {
	s := storage.NewStore()
	build := nullableTable(t, s, "build", 2_000, 1_000, 0)
	probe := nullableTable(t, s, "probe", 100*types.BatchSize, 1_000, 0)
	ctx := latestContext()
	ctx.Workers = 1
	// The probe side is a working table: its batches exist already, so
	// pulling one allocates nothing either.
	probeRows, err := Run(plan.NewScan(probe, "", s.Snapshot()), ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Bindings["probe"] = probeRows
	join := &plan.Join{Type: plan.InnerJoin, L: plan.NewScan(build, "b", s.Snapshot()),
		R: &plan.WorkingScan{Name: "probe", Sch: probe.Schema()}, EquiLeft: []int{0}, EquiRight: []int{0}}
	agg := &plan.Aggregate{Child: join,
		Keys: []expr.Expr{&expr.BinOp{Op: expr.OpMod, Typ: types.Int64,
			L: colRef("k", 0, types.Int64), R: &expr.Const{Val: types.NewInt(16)}}},
		KeyNames: []string{"g"},
		Aggs: []plan.AggSpec{{Func: plan.AggSum, Arg: &expr.BinOp{Op: expr.OpMul, Typ: types.Float64,
			L: colRef("v", 3, types.Float64), R: &expr.Const{Val: types.NewFloat(2)}}, Type: types.Float64, Name: "sum"}}}
	op, err := buildWith(whole(join), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	sink, err := newAggSink(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		b, err := op.Next()
		if err == nil && b == nil {
			t.Fatal("probe side exhausted")
		}
		if err == nil {
			err = sink.consume(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("a warm probe batch and its aggregation allocate %.1f times, want 0", allocs)
	}
}
