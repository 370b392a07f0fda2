package exec

import (
	"reflect"
	"runtime"
	"strings"
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
		ctx := latestContext()
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
		"index-scan": &plan.IndexScan{Rel: tbl, Index: "big_k",
			Column: "k", Kind: "ORDERED", Eq: &three},
	} {
		op, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if err := op.Open(latestContext()); err != nil {
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

// TestScanReadsAtContextSnapshot: one plan, built at the latest snapshot,
// reads whatever snapshot the context names — the table scan and the index
// probe alike — and is left as it was built.
func TestScanReadsAtContextSnapshot(t *testing.T) {
	const rows, mod = 20_000, 10
	s, tbl := indexedBigTable(t, rows, mod)
	first := s.Snapshot()
	tx := s.Begin()
	more := types.NewBatch(tbl.Schema())
	for i := 0; i < rows; i++ {
		more.AppendRow([]types.Value{types.NewInt(int64(i % mod)), types.NewFloat(float64(i))})
	}
	if err := tx.Insert(tbl, more); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	three := types.NewInt(3)
	for name, p := range map[string]plan.Node{
		"scan":       plan.NewScan(tbl, "", s.Snapshot()),
		"index-scan": &plan.IndexScan{Rel: tbl, Index: "big_k", Column: "k", Kind: "ORDERED", Eq: &three},
	} {
		per := rows
		if name == "index-scan" {
			per = rows / mod
		}
		built := reflect.ValueOf(p).Elem().Interface()
		for _, at := range []struct {
			snapshot uint64
			want     int
		}{{first, per}, {s.Snapshot(), 2 * per}, {first, per}} {
			ctx := NewContext()
			ctx.Snapshot = at.snapshot
			m, err := Run(p, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumRows != at.want {
				t.Errorf("%s at snapshot %d: %d rows, want %d", name, at.snapshot, m.NumRows, at.want)
			}
		}
		if !reflect.DeepEqual(built, reflect.ValueOf(p).Elem().Interface()) {
			t.Errorf("%s: running the plan changed it", name)
		}
	}
}

// TestIndexProbeBindsItsArgument: a $1 probe takes its key from the
// context's arguments, coerced to the indexed column's type — DOUBLE 5
// probes BIGINT 5 — and fails when no argument is bound.
func TestIndexProbeBindsItsArgument(t *testing.T) {
	const rows, mod = 20_000, 10
	_, tbl := indexedBigTable(t, rows, mod)
	p := &plan.IndexScan{Rel: tbl, Index: "big_k", Column: "k", Kind: "ORDERED", EqParam: 1}
	ctx := latestContext()
	ctx.Args = []types.Value{types.NewFloat(5)}
	m, err := Run(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != rows/mod {
		t.Errorf("$1 = 5.0 probed %d rows, want %d", m.NumRows, rows/mod)
	}
	for _, row := range m.Rows() {
		if row[0].T != types.Int64 || row[0].I != 5 {
			t.Fatalf("probe returned k = %v", row[0])
		}
	}
	if p.Eq != nil || p.EqParam != 1 {
		t.Errorf("the probe wrote its key into the plan: Eq %v, EqParam %d", p.Eq, p.EqParam)
	}
	if _, err := Run(p, latestContext()); err == nil || !strings.Contains(err.Error(), "no argument bound for parameter $1") {
		t.Errorf("unbound $1: err = %v", err)
	}
}

type unknownNode struct{ plan.Values }

// TestBuildRejectsUnknownNode: a plan node type the executor does not know
// fails the build loudly.
func TestBuildRejectsUnknownNode(t *testing.T) {
	if _, err := Build(&unknownNode{}); err == nil || !strings.Contains(err.Error(), "no physical operator") {
		t.Errorf("unknown node type: err = %v, want a loud failure", err)
	}
}
