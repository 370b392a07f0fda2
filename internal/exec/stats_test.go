package exec

import (
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// countStatsOps walks an operator graph with reflection and counts the
// statsOp wrappers in it, including ones buried in unexported fields.
func countStatsOps(op Operator) int {
	target := reflect.TypeOf(&statsOp{})
	visited := map[uintptr]bool{}
	count := 0
	var walk func(v reflect.Value, depth int)
	walk = func(v reflect.Value, depth int) {
		if depth > 64 {
			return
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || visited[v.Pointer()] {
				return
			}
			visited[v.Pointer()] = true
			if v.Type() == target {
				count++
			}
			walk(v.Elem(), depth+1)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), depth+1)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), depth+1)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), depth+1)
			}
		}
	}
	walk(reflect.ValueOf(op), 0)
	return count
}

// TestDisarmedBuildHasNoStatsWrappers is the structural form of the
// disarmed-path guarantee: with no collector, Build produces the exact
// operator tree the engine had before the telemetry layer existed — zero
// wrappers, zero per-batch bookkeeping.
func TestDisarmedBuildHasNoStatsWrappers(t *testing.T) {
	p := buildFilterAggPlan(t, 10_000)
	op, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := countStatsOps(op); n != 0 {
		t.Fatalf("disarmed build contains %d statsOp wrappers, want 0", n)
	}

	ctx := latestContext()
	sc := ctx.EnableStats()
	if sc == nil {
		t.Fatal("EnableStats returned nil")
	}
	armed, err := buildWith(whole(p), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := countStatsOps(armed); n == 0 {
		t.Fatal("armed build contains no statsOp wrappers")
	}
}

// TestStatsTreeCountsFilterAgg pushes known row counts through the
// scan → filter → aggregate pipeline, serial and 8-way parallel, and
// checks per-operator actuals against ground truth.
func TestStatsTreeCountsFilterAgg(t *testing.T) {
	const rows = 100_000
	p := buildFilterAggPlan(t, rows)
	for _, workers := range []int{1, 8} {
		ctx := latestContext()
		ctx.Workers = workers
		sc := ctx.EnableStats()
		mat, err := Run(p, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if mat.NumRows != 1 {
			t.Fatalf("workers=%d result rows = %d", workers, mat.NumRows)
		}
		tree := sc.Tree(p)
		agg := tree
		filter := agg.Children[0]
		scan := filter.Children[0]
		if agg.RowsOut != 1 {
			t.Errorf("workers=%d aggregate rows = %d, want 1", workers, agg.RowsOut)
		}
		// The predicate v > rows/2 keeps the top half minus the boundary.
		if want := int64(rows/2 - 1); filter.RowsOut != want {
			t.Errorf("workers=%d filter rows = %d, want %d", workers, filter.RowsOut, want)
		}
		if scan.RowsOut != rows {
			t.Errorf("workers=%d scan rows = %d, want %d", workers, scan.RowsOut, rows)
		}
		if workers > 1 && scan.Instances < 2 {
			t.Errorf("parallel scan instances = %d, want >= 2", scan.Instances)
		}
		if agg.TimeNanos <= 0 || scan.Bytes <= 0 {
			t.Errorf("workers=%d missing actuals: time=%d bytes=%d", workers, agg.TimeNanos, scan.Bytes)
		}
	}
}

// TestTelemetryOverheadSmoke asserts the disarmed path stays within 2% of
// the telemetry-free baseline on the vectorized filter+agg pipeline. The
// baseline is the identical plan driven through buildWith with no
// collector — byte-identical operators today (see the structural test);
// this smoke exists to catch a future change that instruments the
// disarmed path unconditionally. Enabled via make overhead
// (LAMBDADB_OVERHEAD_SMOKE=1) to keep ordinary test runs timing-free.
func TestTelemetryOverheadSmoke(t *testing.T) {
	if os.Getenv("LAMBDADB_OVERHEAD_SMOKE") == "" {
		t.Skip("set LAMBDADB_OVERHEAD_SMOKE=1 (make overhead) to run")
	}
	p := buildFilterAggPlan(t, 1_000_000)
	// run builds the operator tree, drains it once and returns the time.
	run := func(build func() (Operator, error)) float64 {
		start := time.Now()
		op, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ctx := latestContext()
		ctx.Workers = 1
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		for {
			batch, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start))
	}
	baseline := func() (Operator, error) { return buildWith(whole(p), &Context{}) }
	disarmed := func() (Operator, error) { return Build(p) }

	// Alternate the sides one execution at a time, each pair led by the
	// other side than the last, and judge the median per-pair ratio: a slow
	// moment of the host or a GC cycle lands on both runs of a pair or makes
	// one outlier among hundreds, so no single pair decides.
	for i := 0; i < 5; i++ {
		run(baseline)
		run(disarmed)
	}
	ratios := make([]float64, 501)
	for i := range ratios {
		if i%2 == 0 {
			base := run(baseline)
			ratios[i] = run(disarmed) / base
		} else {
			dis := run(disarmed)
			ratios[i] = dis / run(baseline)
		}
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("disarmed/baseline over %d pairs: quartiles %.4f %.4f %.4f, median overhead %.2f%%",
		len(ratios), ratios[len(ratios)/4], ratios[len(ratios)/2], ratios[3*len(ratios)/4], overhead*100)
	if overhead > 0.02 {
		t.Errorf("disarmed telemetry overhead %.2f%% exceeds 2%%", overhead*100)
	}
}
