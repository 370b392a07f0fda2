package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// TestScanBuildsOnlyWhatIsPulled: a leaf builds a storage batch only when
// its consumer pulls one. LIMIT 1 over a 60k-row table takes one batch, and
// a UNION ALL whose left branch satisfies the LIMIT builds none of its
// right branch, although the union opened both.
func TestScanBuildsOnlyWhatIsPulled(t *testing.T) {
	defer faultinject.Reset()
	s := storage.NewStore()
	l := nullableTable(t, s, "l", 60_000, 1000, 0)
	r := nullableTable(t, s, "r", 60_000, 1000, 0)
	snap := s.Snapshot()
	var built atomic.Int64
	faultinject.Set("exec.scan.batch", func() error { built.Add(1); return nil })
	for _, tc := range []struct {
		name string
		plan plan.Node
	}{
		{"limit", &plan.Limit{Child: plan.NewScan(l, "", snap), N: 1}},
		{"union-all", &plan.Limit{N: 1, Child: &plan.Union{All: true,
			L: plan.NewScan(l, "", snap), R: plan.NewScan(r, "", snap)}}},
	} {
		built.Store(0)
		ctx := NewContext()
		ctx.Workers = 1
		mat, err := Run(tc.plan, ctx)
		if err != nil || mat.NumRows != 1 {
			t.Fatalf("%s: %v rows, %v", tc.name, mat, err)
		}
		// Work a scan did ahead of its consumer would land by now.
		time.Sleep(20 * time.Millisecond)
		if got := built.Load(); got != 1 {
			t.Errorf("%s: storage built %d batches for one row, want 1", tc.name, got)
		}
	}
}

// TestScanStartsNoGoroutine: a table scan and an index scan run on their
// consumer's goroutine — opening one, pulling it, and closing it early
// leave the goroutine count where it was.
func TestScanStartsNoGoroutine(t *testing.T) {
	s, tbl := indexedBigTable(t, 60_000, 10)
	three := types.NewInt(3)
	for name, p := range map[string]plan.Node{
		"scan": plan.NewScan(tbl, "", s.Snapshot()),
		"index-scan": &plan.IndexScan{Rel: tbl, Snapshot: s.Snapshot(), Index: "big_k",
			Column: "k", Kind: "ORDERED", Eq: &three},
	} {
		op, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if err := op.Open(NewContext()); err != nil {
			t.Fatal(err)
		}
		if b, err := op.Next(); err != nil || b == nil {
			t.Fatalf("%s: first batch %v, %v", name, b, err)
		}
		pulled := runtime.NumGoroutine()
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if closed := runtime.NumGoroutine(); pulled != before || closed != before {
			t.Errorf("%s: %d goroutines before Open, %d after the first Next, %d after Close", name, before, pulled, closed)
		}
	}
}
