package plan

import (
	"strings"
	"testing"

	"lambdadb/internal/sql"
	"lambdadb/internal/storage"
)

func parseSelect(q string) (*sql.Select, error) {
	st, err := sql.ParseOne(q)
	if err != nil {
		return nil, err
	}
	return st.(*sql.Select), nil
}

// mapStats is a test StatsProvider backed by a map.
type mapStats map[string]*TableStats

func (m mapStats) TableStats(table string) (*TableStats, bool) {
	ts, ok := m[table]
	return ts, ok
}

func TestChooseIndexScanPointProbe(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.HashIndex}); err != nil {
		t.Fatal(err)
	}
	// 100 distinct keys: a point probe is ~1% selective even without
	// ANALYZE (the index key count is the NDV proxy).
	n := buildPlan(t, s, "SELECT * FROM t WHERE a = 5")
	tree := ExplainTree(n)
	if !strings.Contains(tree, "IndexScan t using t_a (a = 5)") {
		t.Fatalf("expected IndexScan, got:\n%s", tree)
	}
	if strings.Contains(tree, "Filter") {
		t.Fatalf("fully absorbed predicate should leave no Filter:\n%s", tree)
	}
}

func TestChooseIndexScanResidualFilter(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.OrderedIndex}); err != nil {
		t.Fatal(err)
	}
	n := buildPlan(t, s, "SELECT * FROM t WHERE a = 5 AND b > 1.5")
	tree := ExplainTree(n)
	if !strings.Contains(tree, "IndexScan") {
		t.Fatalf("expected IndexScan, got:\n%s", tree)
	}
	if !strings.Contains(tree, "Filter") {
		t.Fatalf("non-absorbed conjunct must stay in a residual Filter:\n%s", tree)
	}
}

func TestLowSelectivityKeepsFullScan(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.OrderedIndex}); err != nil {
		t.Fatal(err)
	}
	// Without stats a range predicate estimates at 30% — over the gate.
	n := buildPlan(t, s, "SELECT * FROM t WHERE a >= 0")
	tree := ExplainTree(n)
	if strings.Contains(tree, "IndexScan") {
		t.Fatalf("low-selectivity range must keep the full scan:\n%s", tree)
	}
	if !strings.Contains(tree, "Scan t") {
		t.Fatalf("expected full Scan, got:\n%s", tree)
	}
}

func TestRangeProbeWithStats(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.OrderedIndex}); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ts := CollectTableStats(tbl, s.Snapshot())
	st, err := parseSelect("SELECT * FROM t WHERE a >= 90 AND a <= 94")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(s, s.Snapshot())
	b.Stats = mapStats{"t": ts}
	n, err := b.BuildSelect(st)
	if err != nil {
		t.Fatal(err)
	}
	tree := ExplainTree(n)
	if !strings.Contains(tree, "IndexScan t using t_a (90 <= a <= 94)") {
		t.Fatalf("expected selective range IndexScan, got:\n%s", tree)
	}
	// Hash indexes must never serve range probes.
	s2 := testStore(t)
	if err := s2.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.HashIndex}); err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder(s2, s2.Snapshot())
	b2.Stats = mapStats{"t": ts}
	n2, err := b2.BuildSelect(st)
	if err != nil {
		t.Fatal(err)
	}
	if tree2 := ExplainTree(n2); strings.Contains(tree2, "IndexScan") {
		t.Fatalf("hash index must not serve a range probe:\n%s", tree2)
	}
}

func TestJoinReorderSmallestFirst(t *testing.T) {
	s := testStore(t)
	// t has 100 rows, u has 10; a three-way join should start from u.
	n := buildPlan(t, s,
		"SELECT * FROM t JOIN u ON t.a = u.a JOIN t AS t2 ON u.a = t2.a")
	tree := ExplainTree(n)
	iu := strings.Index(tree, "Scan u")
	it := strings.Index(tree, "Scan t")
	if iu < 0 || it < 0 {
		t.Fatalf("missing scans in:\n%s", tree)
	}
	if iu > it {
		t.Fatalf("expected u (10 rows) to lead the reordered join:\n%s", tree)
	}
	// No cross products: every join must carry a condition.
	if strings.Contains(tree, "CrossJoin") {
		t.Fatalf("reorder introduced a cross product:\n%s", tree)
	}
}

func TestStatsDrivenFilterSelectivity(t *testing.T) {
	s := testStore(t)
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ts := CollectTableStats(tbl, s.Snapshot())
	st, err := parseSelect("SELECT * FROM t WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(s, s.Snapshot())
	b.Stats = mapStats{"t": ts}
	n, err := b.BuildSelect(st)
	if err != nil {
		t.Fatal(err)
	}
	// With 100 distinct values the stats say 1% — the heuristic would have
	// said 10%. Walk to the Filter (no index exists, so it survives).
	var f *Filter
	var walk func(Node)
	walk = func(m Node) {
		if ff, ok := m.(*Filter); ok {
			f = ff
		}
		for _, c := range m.Children() {
			walk(c)
		}
	}
	walk(n)
	if f == nil {
		t.Fatalf("no Filter in plan:\n%s", ExplainTree(n))
	}
	if f.Sel != 0.01 {
		t.Fatalf("Filter.Sel = %v, want 0.01", f.Sel)
	}
	if got := f.Card(); got != 1 {
		t.Fatalf("Filter.Card() = %v, want 1", got)
	}
}
