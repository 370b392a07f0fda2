package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// counted puts a global count(*) over p: a driver that splits p's pipeline
// into morsels and retains none of its batches.
func counted(p plan.Node) plan.Node {
	return &plan.Aggregate{Child: p, Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"}}}
}

// lifecycleCtx returns an exec context with the given parallelism attached
// to a cancellable Go context.
func lifecycleCtx(workers int) (*Context, context.CancelFunc) {
	goCtx, cancel := context.WithCancel(context.Background())
	ctx := NewContext()
	ctx.Workers = workers
	ctx.AttachContext(goCtx)
	return ctx, cancel
}

// TestCancelDuringParallelOperators cancels mid-flight while the morsel
// worker pool is running a parallel join, sort, and aggregation, under
// every worker count the pool distinguishes. The fault hook blocks the
// scan producers until cancel has fired, so the query is guaranteed to be
// in flight when cancellation lands (no sleep-based racing).
func TestCancelDuringParallelOperators(t *testing.T) {
	s := storage.NewStore()
	l := nullableTable(t, s, "l", 60_000, 30_000, 0)
	r := nullableTable(t, s, "r", 60_000, 30_000, 0)
	plans := map[string]func() plan.Node{
		"join": func() plan.Node {
			return &plan.Join{
				Type:      plan.InnerJoin,
				L:         plan.NewScan(l, "l", s.Snapshot()),
				R:         plan.NewScan(r, "r", s.Snapshot()),
				EquiLeft:  []int{0},
				EquiRight: []int{0},
			}
		},
		"sort": func() plan.Node {
			return &plan.Sort{
				Child: plan.NewScan(l, "", s.Snapshot()),
				Keys:  []plan.SortKey{{Col: 1, Desc: true}},
				TopK:  -1,
			}
		},
		"aggregate": func() plan.Node {
			return &plan.Aggregate{
				Child:    plan.NewScan(r, "", s.Snapshot()),
				Keys:     []expr.Expr{colRef("k", 0, types.Int64)},
				KeyNames: []string{"k"},
				Aggs: []plan.AggSpec{{Func: plan.AggSum,
					Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "sum(v)"}},
			}
		},
	}
	for name, mk := range plans {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				defer faultinject.Reset()
				ctx, cancel := lifecycleCtx(workers)
				released := make(chan struct{})
				var once sync.Once
				faultinject.Set("exec.scan.batch", func() error {
					once.Do(func() {
						cancel()
						close(released)
					})
					<-released
					return nil
				})
				_, err := Run(mk(), ctx)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			})
		}
	}
}

func TestMemoryLimitScan(t *testing.T) {
	s, tbl := bigTable(t, 100_000, 1000)
	ctx := NewContext()
	ctx.SetMemoryLimit(4 << 10) // far below the ~1.6 MB the scan holds
	_, err := Run(plan.NewScan(tbl, "", s.Snapshot()), ctx)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceError, got %v", err)
	}
	if re.Operator == "" || re.Limit != 4<<10 || re.Requested <= re.Limit {
		t.Fatalf("malformed ResourceError: %+v", re)
	}
}

func TestMemoryLimitNamesJoinBuild(t *testing.T) {
	s := storage.NewStore()
	l := nullableTable(t, s, "l", 40_000, 20_000, 0)
	r := nullableTable(t, s, "r", 40_000, 20_000, 0)
	join := &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(l, "l", s.Snapshot()),
		R:         plan.NewScan(r, "r", s.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	ctx := NewContext()
	// Enough for the build-side batches but not the hash table on top.
	ctx.SetMemoryLimit(int64(40_000*16) + 48)
	_, err := Run(join, ctx)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceError, got %v", err)
	}
	if re.Operator != "join" {
		t.Fatalf("ResourceError.Operator = %q, want %q", re.Operator, "join")
	}
}

// TestJoinBuildSidesStayBookedForTheStatement: outside a loop, what a join
// retains — its blocking side and the table over it — belongs to the
// statement's cache and is returned when the Context dies, not when the join
// closes. The branches of a UNION ALL of joins therefore add up: a budget
// must admit every build side of the statement at once (DESIGN §8).
func TestJoinBuildSidesStayBookedForTheStatement(t *testing.T) {
	s := storage.NewStore()
	small := nullableTable(t, s, "small", 2_000, 2_000, 0)
	big := nullableTable(t, s, "big", 20_000, 2_000, 0)
	branch := func() plan.Node {
		return counted(&plan.Join{Type: plan.InnerJoin, L: plan.NewScan(small, "", s.Snapshot()),
			R: plan.NewScan(big, "", s.Snapshot()), EquiLeft: []int{0}, EquiRight: []int{0}})
	}
	run := func(p plan.Node, limit int64) (int64, error) {
		ctx := NewContext()
		ctx.SetMemoryLimit(limit)
		_, err := Run(p, ctx)
		return ctx.MemoryUsed(), err
	}
	one, err := run(branch(), 1<<30)
	if err != nil || one < 2_000*16 {
		t.Fatalf("one join: %d bytes booked at the end, %v", one, err)
	}
	const branches = 4
	union := branch()
	for i := 1; i < branches; i++ {
		union = &plan.Union{All: true, L: union, R: branch()}
	}
	if used, err := run(union, 1<<30); err != nil || used < branches*one {
		t.Errorf("%d joins: %d bytes booked at the end, want %d x %d; %v", branches, used, branches, one, err)
	}
	var re *ResourceError
	if _, err := run(union, (branches-1)*one); !errors.As(err, &re) {
		t.Errorf("a budget of %d build sides admitted %d: %v", branches-1, branches, err)
	}
}

func TestMemoryLimitUnlimitedByDefault(t *testing.T) {
	s, tbl := bigTable(t, 50_000, 1000)
	ctx := NewContext()
	if _, err := Run(plan.NewScan(tbl, "", s.Snapshot()), ctx); err != nil {
		t.Fatalf("no limit set, query must pass: %v", err)
	}
	if got := ctx.MemoryUsed(); got != 0 {
		t.Fatalf("MemoryUsed without a limit = %d, want 0", got)
	}
}

func TestIterateReleasesWorkingTables(t *testing.T) {
	// A long non-appending loop whose working table is one small row: with
	// per-round release of the dropped working table — and of the key table
	// an aggregating or deduplicating step builds — a thousand rounds fit in
	// a few KB. If rounds accumulated, the budget would trip long before
	// MaxDepth.
	one := &plan.Values{
		Sch:  types.Schema{{Name: "x", Type: types.Int64}},
		Rows: [][]types.Value{{types.NewInt(0)}},
	}
	sch := one.Sch
	working := &plan.WorkingScan{Name: "iterate", Sch: sch}
	steps := []struct {
		name  string
		step  plan.Node
		limit int64
	}{
		{"scan", working, 1 << 12},
		{"aggregate", &plan.Aggregate{Child: working, Aggs: []plan.AggSpec{
			{Func: plan.AggMax, Arg: colRef("x", 0, types.Int64), Type: types.Int64, Name: "x"}}}, 1 << 12},
		// A recursive UNION that ends after its seed. The seed relation is
		// booked once by the CTE and once as the step's result, and ITERATE
		// returns one of the two (8 B a round stay behind); a dedup table
		// that stayed behind would be ten times that.
		{"recursive-union", &plan.RecursiveCTE{Name: "r", Init: working, Rec: &plan.Values{Sch: sch}, MaxDepth: 10}, 1 << 14},
		// What a round caches about its working table — a WITH's relation, a
		// join's build side — ends with the round. The Shared relation is
		// also the step's result and so the next working table: it is booked
		// twice (by the cache and by the step's sink) and returned twice (at
		// the epoch bump and when ITERATE drops it).
		{"shared", &plan.Shared{Child: working}, 1 << 12},
		{"join-build", &plan.Project{Exprs: []expr.Expr{colRef("x", 0, types.Int64)}, Names: []string{"x"},
			Child: &plan.Join{Type: plan.InnerJoin, L: working, R: &plan.WorkingScan{Name: "iterate", Sch: sch},
				EquiLeft: []int{0}, EquiRight: []int{0}}}, 1 << 12},
	}
	for _, tc := range steps {
		it := &plan.Iterate{
			Init:     one,
			Step:     tc.step,
			Stop:     &plan.Values{Sch: sch}, // no rows: never stops before MaxDepth
			MaxDepth: 1000,
		}
		ctx := NewContext()
		ctx.SetMemoryLimit(tc.limit)
		_, err := Run(it, ctx)
		if errors.As(err, new(*ResourceError)) {
			t.Fatalf("%s step: per-round state not released: budget tripped with %v", tc.name, err)
		}
		if err == nil || !strings.Contains(err.Error(), "exceeded 1000 iterations") {
			t.Fatalf("%s step: want MaxDepth exhaustion, got %v", tc.name, err)
		}
		if used := ctx.MemoryUsed(); used < 0 {
			t.Errorf("%s step: %d bytes in use after the loop: something was released twice", tc.name, used)
		}
	}
}

// TestMemoryLimitNamesRetainingSink: state an operator retains besides
// batches — the key table under aggregation, DISTINCT, UNION and a recursive
// UNION, the analytical operators' float matrix and edge arrays — is charged
// like hash-join tables and sort runs are, and the breach names the operator
// that holds it.
func TestMemoryLimitNamesRetainingSink(t *testing.T) {
	const rows = 300_000
	s, tbl := bigTable(t, rows, rows) // k unique
	scan := plan.NewScan(tbl, "", s.Snapshot())
	k := colRef("k", 0, types.Int64)
	// Under a global count no batch of the input is retained: whatever trips
	// the budget is the input operator's own state.
	plans := []struct {
		op    string
		plan  plan.Node
		limit int64
	}{
		{"aggregate", counted(&plan.Aggregate{Child: scan, Keys: []expr.Expr{k}, KeyNames: []string{"k"},
			Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"}}}), 1 << 20},
		{"distinct", counted(&plan.Distinct{Child: scan}), 1 << 20},
		{"union", counted(&plan.Union{L: scan, R: scan}), 1 << 20},
		// The recursive CTE keeps its 4.8 MB seed relation, booked by the
		// scan; the dedup table on top of it is what does not fit.
		{"recursive-cte", counted(&plan.RecursiveCTE{Name: "r", Init: scan, MaxDepth: 10,
			Rec: &plan.Values{Sch: tbl.Schema()}}), rows*16 + 1<<20},
		// A 300k x 2 matrix is 4.8 MB.
		{"kmeans", &plan.KMeans{Data: scan, MaxIter: 1, OutNames: []string{"k", "v"},
			Centers: &plan.Values{Sch: types.Schema{{Name: "k", Type: types.Float64}, {Name: "v", Type: types.Float64}},
				Rows: [][]types.Value{{types.NewFloat(0), types.NewFloat(0)}}}}, 1 << 20},
		{"pagerank", &plan.PageRank{Damping: 0.85, MaxIter: 1,
			Edges: &plan.Project{Child: scan, Exprs: []expr.Expr{k, k}, Names: []string{"src", "dst"}}}, 1 << 20},
	}
	for _, tc := range plans {
		for _, workers := range []int{1, 8} {
			ctx := NewContext()
			ctx.Workers = workers
			ctx.SetMemoryLimit(tc.limit)
			_, err := Run(tc.plan, ctx)
			var re *ResourceError
			if !errors.As(err, &re) || re.Operator != tc.op {
				t.Errorf("%s, workers=%d: want *ResourceError naming %q, got %v", tc.op, workers, tc.op, err)
			}
		}
	}
}

func TestPanicContainedInWorkerPool(t *testing.T) {
	defer faultinject.Reset()
	s := storage.NewStore()
	tbl := nullableTable(t, s, "t", 60_000, 1000, 0)
	faultinject.Set("exec.sort.run", func() error { panic("worker panic") })
	srt := &plan.Sort{
		Child: plan.NewScan(tbl, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 0}},
		TopK:  -1,
	}
	ctx := NewContext()
	ctx.Workers = 8
	_, err := Run(srt, ctx)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError from worker pool, got %v", err)
	}
}

// TestScanProducerLifecycle runs every way a scan can end early against
// the one producer operator behind both access paths — a table scan, an
// index point probe and an index range probe — and asserts they fail
// identically: cancellation and deadlines surface as the context error
// (never as a clean end of stream), an injected storage error comes back
// unchanged, a panic in the producer goroutine becomes an *InternalError
// naming the operator, and the next query on the same table is healthy.
func TestScanProducerLifecycle(t *testing.T) {
	const rows, mod = 100_000, 10
	s, tbl := indexedBigTable(t, rows, mod)
	three, two, five := types.NewInt(3), types.NewInt(2), types.NewInt(5)
	index := func(is plan.IndexScan) plan.Node {
		is.Rel, is.Snapshot, is.Index, is.Column, is.Kind = tbl, s.Snapshot(), "big_k", "k", "ORDERED"
		return &is
	}
	producers := []struct {
		label    string
		plan     plan.Node
		wantRows int
	}{
		{"scan", plan.NewScan(tbl, "", s.Snapshot()), rows},
		{"index-scan", index(plan.IndexScan{Eq: &three}), rows / mod},
		{"index-scan", index(plan.IndexScan{Lo: &two, Hi: &five, LoInc: true}), 3 * rows / mod},
	}
	// Two consumers: the executor's Run (drive re-checks the context per
	// batch), and a bare Open/Next loop that trusts the operator alone — so
	// a producer reporting cancellation as EOF cannot hide behind drive.
	consumers := map[string]func(plan.Node, *Context) (int, error){
		"run": func(p plan.Node, ctx *Context) (int, error) {
			mat, err := Run(p, ctx)
			if err != nil {
				return 0, err
			}
			return mat.NumRows, nil
		},
		"next": func(p plan.Node, ctx *Context) (n int, err error) {
			op, err := Build(p)
			if err != nil {
				return 0, err
			}
			if err := op.Open(ctx); err != nil {
				return 0, err
			}
			defer op.Close()
			for {
				b, err := op.Next()
				if err != nil || b == nil {
					return n, err
				}
				n += b.Len()
			}
		},
	}
	errInjected := errors.New("injected storage error")
	faults := []struct {
		name  string
		arm   func(t *testing.T, ctx context.Context, cancel context.CancelFunc) context.Context
		check func(t *testing.T, label string, err error)
	}{
		{"cancel-before-open",
			func(_ *testing.T, ctx context.Context, cancel context.CancelFunc) context.Context {
				cancel()
				return ctx
			},
			func(t *testing.T, _ string, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			}},
		{"cancel-mid-scan",
			func(_ *testing.T, ctx context.Context, cancel context.CancelFunc) context.Context {
				faultinject.Set("exec.scan.batch", func() error { cancel(); return nil })
				return ctx
			},
			func(t *testing.T, _ string, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			}},
		{"deadline-exceeded",
			func(t *testing.T, ctx context.Context, _ context.CancelFunc) context.Context {
				ctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
				t.Cleanup(cancel)
				return ctx
			},
			func(t *testing.T, _ string, err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("want context.DeadlineExceeded, got %v", err)
				}
			}},
		{"injected-error",
			func(_ *testing.T, ctx context.Context, _ context.CancelFunc) context.Context {
				faultinject.Set("exec.scan.batch", func() error { return errInjected })
				return ctx
			},
			func(t *testing.T, _ string, err error) {
				if !errors.Is(err, errInjected) {
					t.Fatalf("want the injected error, got %v", err)
				}
			}},
		{"panic",
			func(_ *testing.T, ctx context.Context, _ context.CancelFunc) context.Context {
				faultinject.Set("exec.scan.batch", func() error { panic("injected operator panic") })
				return ctx
			},
			func(t *testing.T, label string, err error) {
				var ie *InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("want *InternalError, got %v", err)
				}
				if ie.Op != label || ie.Panic != "injected operator panic" || len(ie.Stack) == 0 {
					t.Fatalf("malformed InternalError: op=%q panic=%v stack=%dB", ie.Op, ie.Panic, len(ie.Stack))
				}
			}},
	}
	for i, pr := range producers {
		for cname, consume := range consumers {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s#%d/%s/%s", pr.label, i, cname, f.name), func(t *testing.T) {
					defer faultinject.Reset()
					goCtx, cancel := context.WithCancel(context.Background())
					defer cancel()
					ctx := NewContext()
					ctx.Workers = 1
					ctx.AttachContext(f.arm(t, goCtx, cancel))
					_, err := consume(pr.plan, ctx)
					f.check(t, pr.label, err)

					faultinject.Reset()
					n, err := consume(pr.plan, NewContext())
					if err != nil || n != pr.wantRows {
						t.Fatalf("query after the fault: rows = %d, err = %v; want %d rows", n, err, pr.wantRows)
					}
				})
			}
		}
	}
}

// TestCancelRacesWorkerPool hammers cancellation against the parallel sort
// pool from a separate goroutine (run under -race via make check): whatever
// the interleaving, the query must return promptly with either a clean
// result or context.Canceled — never hang or corrupt state.
func TestCancelRacesWorkerPool(t *testing.T) {
	s := storage.NewStore()
	tbl := nullableTable(t, s, "t", 120_000, 5000, 0)
	for i := 0; i < 6; i++ {
		ctx, cancel := lifecycleCtx(8)
		done := make(chan error, 1)
		go func() {
			_, err := Run(&plan.Sort{
				Child: plan.NewScan(tbl, "", s.Snapshot()),
				Keys:  []plan.SortKey{{Col: 1, Desc: true}},
				TopK:  -1,
			}, ctx)
			done <- err
		}()
		time.Sleep(time.Duration(i) * 200 * time.Microsecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: cancelled query hung", i)
		}
	}
}

// trackedScan stands in for a table scan behind buildHook: it counts the
// instance's Open and Close calls and, when a countdown is armed, panics in
// the Next that exhausts it — a panic on the driver's own goroutine, which
// the scan producer's private containment never sees.
type trackedScan struct {
	Operator
	table         string
	opens, closes int
	untilPanic    *atomic.Int64
}

func (o *trackedScan) Open(ctx *Context) error { o.opens++; return o.Operator.Open(ctx) }
func (o *trackedScan) Close() error            { o.closes++; return o.Operator.Close() }
func (o *trackedScan) Next() (*types.Batch, error) {
	if o.untilPanic.Add(-1) == 0 {
		panic("injected sink panic")
	}
	return o.Operator.Next()
}

// TestDriveContractForEverySink states the pull loop's contract once, for
// every sink on it and for the one-part and the morsel-split case: a panic
// while a batch is pulled becomes an *InternalError, a storage error comes
// back as itself, cancellation mid-stream comes back as context.Canceled —
// and on every path, success included, each operator that was opened is
// closed exactly once. A join is a stage of the pipeline that streams past
// it: however many parts that pipeline runs as, and however it ends, the
// join's blocking side is built — its scan opened and closed — once.
func TestDriveContractForEverySink(t *testing.T) {
	s := storage.NewStore()
	big := nullableTable(t, s, "big", 60_000, 1000, 0)
	small := nullableTable(t, s, "small", 100, 100, 0)
	scan := func(tbl *storage.Table) plan.Node { return plan.NewScan(tbl, tbl.Name(), s.Snapshot()) }
	k := colRef("k", 0, types.Int64)
	centers := &plan.Values{Sch: types.Schema{{Name: "k", Type: types.Float64}, {Name: "v", Type: types.Float64}},
		Rows: [][]types.Value{{types.NewFloat(0), types.NewFloat(0)}, {types.NewFloat(900), types.NewFloat(50_000)}}}
	hashJoin := func(l, r *storage.Table) plan.Node {
		return &plan.Join{Type: plan.InnerJoin, L: scan(l), R: scan(r), EquiLeft: []int{0}, EquiRight: []int{0}}
	}
	fiveOfSmall := &plan.Filter{Child: scan(small), Pred: &expr.BinOp{Op: expr.OpLt, Typ: types.Bool, L: k, R: &expr.Const{Val: types.NewInt(5)}}}
	sinks := []struct {
		name     string
		plan     plan.Node
		blocking string // the table on the blocking side of a join the split pipeline streams past
	}{
		{"materialise", hashJoin(big, small), ""}, // the build side is the split input
		{"join-probe", hashJoin(small, big), ""},
		{"probe-stage", counted(hashJoin(small, big)), "small"},
		{"cross-stage", counted(&plan.Join{Type: plan.CrossJoin, L: scan(big), R: fiveOfSmall}), "small"},
		{"aggregate", &plan.Aggregate{Child: scan(big), Keys: []expr.Expr{k}, KeyNames: []string{"k"},
			Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"}}}, ""},
		{"sort", &plan.Sort{Child: scan(big), Keys: []plan.SortKey{{Col: 1, Desc: true}}, TopK: -1}, ""},
		{"top-k", &plan.Sort{Child: scan(big), Keys: []plan.SortKey{{Col: 1, Desc: true}}, TopK: 10}, ""},
		{"float-matrix", &plan.KMeans{Data: scan(big), Centers: centers, MaxIter: 2, OutNames: []string{"k", "v"}}, ""},
		{"edges", &plan.PageRank{Damping: 0.85, MaxIter: 2,
			Edges: &plan.Project{Child: scan(big), Exprs: []expr.Expr{k, k}, Names: []string{"src", "dst"}}}, ""},
		{"model-application", &plan.KMeansAssign{Data: scan(big), Centers: centers}, ""},
	}

	var mu sync.Mutex
	var tracked []*trackedScan
	var untilPanic atomic.Int64
	prev := buildHook
	defer func() { buildHook = prev }()
	buildHook = func(p plan.Node) (Operator, bool) {
		if sc, ok := p.(*plan.Scan); ok {
			o := &trackedScan{Operator: newTableScan(sc), table: sc.Rel.Name(), untilPanic: &untilPanic}
			mu.Lock()
			tracked = append(tracked, o)
			mu.Unlock()
			return o, true
		}
		return prev(p)
	}

	errInjected := errors.New("injected storage error")
	faults := []struct {
		name  string
		arm   func(cancel context.CancelFunc)
		check func(err error) bool
	}{
		{"none", func(context.CancelFunc) {}, func(err error) bool { return err == nil }},
		{"panic", func(context.CancelFunc) { untilPanic.Store(3) },
			func(err error) bool { return errors.As(err, new(*InternalError)) }},
		{"scan-error", func(context.CancelFunc) { faultinject.FailAfter("exec.scan.batch", 3, errInjected) },
			func(err error) bool { return errors.Is(err, errInjected) }},
		{"cancel", func(cancel context.CancelFunc) {
			var batches atomic.Int64
			faultinject.Set("exec.scan.batch", func() error {
				if batches.Add(1) == 3 {
					cancel()
				}
				return nil
			})
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, sk := range sinks {
		for _, workers := range []int{1, 8} {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", sk.name, workers, f.name), func(t *testing.T) {
					defer faultinject.Reset()
					tracked = nil
					untilPanic.Store(0)
					ctx, cancel := lifecycleCtx(workers)
					defer cancel()
					f.arm(cancel)
					if _, err := Run(sk.plan, ctx); !f.check(err) {
						t.Fatalf("unexpected outcome: %v", err)
					}
					if len(tracked) == 0 {
						t.Fatal("no scan was built through the hook")
					}
					builds := 0
					for i, o := range tracked {
						if o.opens > 1 || o.closes != o.opens {
							t.Errorf("scan instance %d: opened %d times, closed %d times", i, o.opens, o.closes)
						}
						if o.table == sk.blocking {
							builds += o.opens
						}
					}
					if sk.blocking != "" && builds != 1 {
						t.Errorf("the join's blocking side was scanned %d times, want once for all parts", builds)
					}
				})
			}
		}
	}
}
