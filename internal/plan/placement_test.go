package plan_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lambdadb/internal/bench"
	"lambdadb/internal/engine"
	"lambdadb/internal/exec"
	"lambdadb/internal/plan"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

// placementDB holds a(k BIGINT, v BIGINT, x DOUBLE) and b(k DOUBLE, j
// BIGINT, w BIGINT, y VARCHAR), 120 rows each — small enough for the
// unoptimized plans' cross products — with an index on a.v and on b.w. Keys
// k and j are 1 in every row but NULL in every 7th of a and every 11th of b,
// so a.k joins b.j across NULLs and b.k BIGINT to DOUBLE; v and w run over
// 0..19. A third table s(j BIGINT, z DOUBLE) has 5 rows, j one of 2, 5, 5,
// 19 and NULL: the smaller input wherever it is joined.
func placementDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open()
	t.Cleanup(func() { db.Close() })
	db.MustExec("CREATE TABLE a (k BIGINT, v BIGINT, x DOUBLE)")
	db.MustExec("CREATE TABLE b (k DOUBLE, j BIGINT, w BIGINT, y VARCHAR)")
	var as, bs []string
	for i := 0; i < 120; i++ {
		ak, bk, bj := "1", "1.0", "1"
		if i%7 == 0 {
			ak = "NULL"
		}
		if i%11 == 0 {
			bk, bj = "NULL", "NULL"
		}
		as = append(as, fmt.Sprintf("(%s, %d, %d.5)", ak, i%20, i%13))
		bs = append(bs, fmt.Sprintf("(%s, %s, %d, 's%d')", bk, bj, i%20, i%5))
	}
	db.MustExec("INSERT INTO a VALUES " + strings.Join(as, ", "))
	db.MustExec("INSERT INTO b VALUES " + strings.Join(bs, ", "))
	db.MustExec("CREATE TABLE s (j BIGINT, z DOUBLE)")
	db.MustExec("INSERT INTO s VALUES (2, 0.5), (5, 1.5), (5, 2.5), (19, 3.5), (NULL, 4.5)")
	db.MustExec("CREATE INDEX a_v ON a (v)")
	db.MustExec("CREATE INDEX b_w ON b (w)")
	return db
}

func parse(t *testing.T, q string) *sql.Select {
	t.Helper()
	st, err := sql.ParseOne(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	return st.(*sql.Select)
}

// optimized plans q as the engine does.
func optimized(t *testing.T, db *engine.DB, q string) plan.Node {
	t.Helper()
	n, err := plan.NewBuilder(db.Store(), db.Store().Snapshot()).BuildSelect(parse(t, q))
	if err != nil {
		t.Fatalf("plan %s: %v", q, err)
	}
	return n
}

// unoptimized plans q with no rewrite.
func unoptimized(t *testing.T, db *engine.DB, q string) plan.Node {
	t.Helper()
	n, err := plan.NewBuilder(db.Store(), db.Store().Snapshot()).BuildUnoptimized(parse(t, q))
	if err != nil {
		t.Fatalf("plan %s: %v", q, err)
	}
	return n
}

// rowsOf runs a plan and returns its rows as a sorted multiset, each row
// printed with floats to 9 significant digits, so that summing in another
// order does not count as a difference.
func rowsOf(t *testing.T, db *engine.DB, n plan.Node, workers int) []string {
	t.Helper()
	ctx := exec.NewContext()
	ctx.Workers, ctx.Snapshot = workers, db.Store().Snapshot()
	m, err := exec.Run(n, ctx)
	if err != nil {
		t.Fatalf("run:\n%s%v", plan.ExplainTree(n), err)
	}
	var out []string
	for _, row := range m.Rows() {
		var sb strings.Builder
		for _, v := range row {
			if !v.Null && v.T == types.Float64 {
				fmt.Fprintf(&sb, "%.9g|", v.F)
			} else {
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		out = append(out, sb.String())
	}
	slices.Sort(out)
	return out
}

// queryRows runs q through the engine, sorted.
func queryRows(t *testing.T, db *engine.DB, q string) []string {
	t.Helper()
	return rowsOf(t, db, optimized(t, db, q), 1)
}

func walk(n plan.Node, fn func(plan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walk(c, fn)
	}
}

// TestOneSidedOnConjunctIsPushed: a conjunct of an inner join's ON that
// reads one side is a filter on that side, exactly as if it were written
// in WHERE, so an index on it is used.
func TestOneSidedOnConjunctIsPushed(t *testing.T) {
	db := placementDB(t)
	q := "SELECT a.v, b.w, b.y FROM a JOIN b ON a.k = b.j AND b.w = 5"
	tree := plan.ExplainTree(optimized(t, db, q))
	join, index := strings.Index(tree, "InnerJoin on (a.k = b.j)"), strings.Index(tree, "IndexScan b using b_w (w = 5)")
	if join < 0 || index < join {
		t.Errorf("b.w = 5 is not an index scan below the join:\n%s", tree)
	}
	hand := "SELECT a.v, b.w, b.y FROM a JOIN b ON a.k = b.j WHERE b.w = 5"
	if got, want := queryRows(t, db, q), queryRows(t, db, hand); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("%d rows, hand-placed form %d", len(got), len(want))
	}
}

// TestCommaJoinIsAnInnerJoin: WHERE conditions across a comma join are its
// join condition. Two tables join on one key with nothing above the join;
// three join with no cross product.
func TestCommaJoinIsAnInnerJoin(t *testing.T) {
	db := placementDB(t)
	q := "SELECT a.v, b.w FROM a, b WHERE a.k = b.j AND a.v = b.w"
	n := optimized(t, db, q)
	var joins []*plan.Join
	walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			joins = append(joins, j)
		}
		if f, ok := m.(*plan.Filter); ok {
			t.Errorf("a Filter %s is left in the plan:\n%s", f.Pred, plan.ExplainTree(n))
		}
	})
	if len(joins) != 1 || joins[0].Type != plan.InnerJoin || len(joins[0].EquiLeft) != 2 {
		t.Errorf("want one InnerJoin on two keys:\n%s", plan.ExplainTree(n))
	}
	hand := "SELECT a.v, b.w FROM a JOIN b ON a.k = b.j AND a.v = b.w"
	if got, want := queryRows(t, db, q), queryRows(t, db, hand); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("%d rows, hand-placed form %d", len(got), len(want))
	}

	one := optimized(t, db, "SELECT count(*) FROM a, b WHERE a.k = b.j")
	walk(one, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok && (j.Type != plan.InnerJoin || len(j.EquiLeft) != 1) {
			t.Errorf("want an InnerJoin on one key:\n%s", plan.ExplainTree(one))
		}
		if _, ok := m.(*plan.Filter); ok {
			t.Errorf("a Filter is left above the join:\n%s", plan.ExplainTree(one))
		}
	})

	q3 := "SELECT a.x, b.y, c.x FROM a, b, a c WHERE a.v = b.w AND b.w = c.v AND c.x < 2"
	if tree := plan.ExplainTree(optimized(t, db, q3)); strings.Contains(tree, "CrossJoin") {
		t.Errorf("a three-table comma join keeps a cross product:\n%s", tree)
	}
	hand3 := "SELECT a.x, b.y, c.x FROM a JOIN b ON a.v = b.w JOIN a c ON b.w = c.v WHERE c.x < 2"
	if got, want := queryRows(t, db, q3), queryRows(t, db, hand3); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("three tables: %d rows, hand-placed form %d", len(got), len(want))
	}
}

// TestFilterReachesTheScanAtAnyNesting: a filter over four nested
// pass-through subqueries reaches the scan and becomes an index scan.
func TestFilterReachesTheScanAtAnyNesting(t *testing.T) {
	db := placementDB(t)
	q := "SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM a) t1) t2) t3) t4 WHERE v = 5"
	n := optimized(t, db, q)
	tree := plan.ExplainTree(n)
	if !strings.Contains(tree, "IndexScan a using a_v (v = 5)") || strings.Contains(tree, "Filter") {
		t.Errorf("v = 5 did not reach the scan:\n%s", tree)
	}
	if got, want := queryRows(t, db, q), queryRows(t, db, "SELECT * FROM a WHERE v = 5"); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("%d rows, hand-placed form %d", len(got), len(want))
	}
}

// TestReorderKeepsFilterEstimates: the join reorder hands its conditions to
// the placement pass, which passes over the leaves again; a filter on a
// scan keeps the selectivity the table's statistics gave it, so the build
// sides are chosen from the data's estimates.
func TestReorderKeepsFilterEstimates(t *testing.T) {
	db := placementDB(t)
	snap := db.Store().Snapshot()
	stats := statsOf{}
	for _, name := range []string{"a", "b"} {
		tbl, err := db.Store().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		stats[name] = plan.CollectTableStats(tbl, snap)
	}
	b := plan.NewBuilder(db.Store(), snap)
	b.Stats = stats
	n, err := b.BuildSelect(parse(t, "SELECT a.x, b.y, s.z FROM a, b, s WHERE a.v = b.w AND b.w = s.j AND a.x > 11 AND b.y = 's1'"))
	if err != nil {
		t.Fatal(err)
	}
	filters := 0
	walk(n, func(m plan.Node) {
		if f, ok := m.(*plan.Filter); ok {
			if _, onScan := f.Child.(*plan.Scan); onScan {
				filters++
				if f.Sel <= 0 {
					t.Errorf("Filter %s lost its estimate:\n%s", f.Pred, plan.ExplainTree(n))
				}
			}
		}
	})
	if filters != 2 {
		t.Errorf("%d filters on scans, want 2:\n%s", filters, plan.ExplainTree(n))
	}
}

type statsOf map[string]*plan.TableStats

func (s statsOf) TableStats(table string) (*plan.TableStats, bool) {
	ts, ok := s[table]
	return ts, ok
}

// placementCorpus is a set of queries whose conjuncts the placement pass
// moves, or must not move.
var placementCorpus = []string{
	// comma joins
	"SELECT a.v, b.w FROM a, b WHERE a.v = b.w AND a.x > 3",
	"SELECT a.v, b.y, c.x FROM a, b, a c WHERE a.v = b.w AND b.w = c.v AND c.x < 2 AND b.y = 's1'",
	"SELECT count(*) FROM a, b WHERE a.k = b.k AND a.v < 3 AND b.w < 3",
	// ON and WHERE mixed
	"SELECT a.v, b.w FROM a JOIN b ON a.v = b.w AND b.w < 4 WHERE a.x > 5 AND a.v + b.w > 2",
	"SELECT a.v, b.w FROM a JOIN b ON a.v < b.w WHERE a.v = 3 AND b.w < 6",
	"SELECT a.v, b.w FROM a JOIN b ON a.v = b.w AND a.x > b.w AND a.v < 3",
	"SELECT a.v, b.w FROM a CROSS JOIN b WHERE a.v = 2 AND b.w = 3",
	// left joins, with conditions on either side in ON and in WHERE
	"SELECT a.v, a.x, b.w FROM a LEFT JOIN b ON a.v = b.w AND b.y = 's2' WHERE a.v < 5",
	"SELECT a.v, a.x, b.w FROM a LEFT JOIN b ON a.v = b.w AND a.x > 6 WHERE a.v < 5",
	"SELECT a.v, b.w FROM a LEFT JOIN b ON a.v = b.w + 1000 WHERE b.w IS NULL AND a.v < 3",
	"SELECT a.v, c.w FROM a JOIN (SELECT b.w, b.y FROM a x LEFT JOIN b ON x.v = b.w WHERE x.v < 3) c ON a.v = c.w WHERE c.y = 's1'",
	// unions
	"SELECT * FROM (SELECT v, x FROM a UNION ALL SELECT w, k FROM b) u WHERE v = 4 AND x > 0",
	"SELECT * FROM (SELECT k, v FROM a UNION ALL SELECT k, w FROM b) u WHERE k = 1 AND v < 3",
	"SELECT * FROM (SELECT v FROM a UNION SELECT w FROM b) u WHERE v < 10",
	// nested aliases and computed columns
	"SELECT * FROM (SELECT * FROM (SELECT v, x, v * 2 AS d FROM (SELECT * FROM a) t1) t2) t3 WHERE v = 5 AND d = 10 AND x > 3",
	"SELECT t.d, b.w FROM (SELECT v + 1 AS d, x FROM a) t JOIN b ON t.d = b.w WHERE t.x > 4 AND b.w < 6",
	// NULL and BIGINT = DOUBLE keys
	"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.v = 7 AND b.w = 7",
	"SELECT a.v, b.w FROM a JOIN b ON a.k = b.j WHERE a.v = 7 AND b.w = 7",
	"SELECT a.v, b.j FROM a LEFT JOIN b ON a.k = b.j AND a.v = b.w WHERE a.v < 4",
	"SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.v = 8 AND b.w < 2",
	"SELECT a.v, b.k FROM a LEFT JOIN b ON a.k = b.k AND b.w = 9 WHERE a.v = 9",
	// constant conditions
	"SELECT a.v, b.w FROM a JOIN b ON false",
	"SELECT a.v, b.w FROM a LEFT JOIN b ON false WHERE a.v = 1",
	"SELECT a.v, b.w FROM a JOIN b ON true WHERE a.v = 1 AND b.w = 2",
	"SELECT a.v FROM a WHERE 1 = 2",
	// below barriers: aggregates, sorts, limits, distinct and CTEs
	"SELECT v, count(*) FROM (SELECT a.v FROM a, b WHERE a.v = b.w) t GROUP BY v HAVING count(*) > 1",
	"SELECT * FROM (SELECT v, count(*) AS n FROM a GROUP BY v) g WHERE v < 3",
	"SELECT * FROM (SELECT DISTINCT v FROM a) d, b WHERE d.v = b.w AND b.w < 3",
	"WITH c AS (SELECT v, x FROM a WHERE x > 2) SELECT c1.v, c2.x FROM c c1, c c2 WHERE c1.v = c2.v AND c1.v < 2",
	// the smaller input on the right: the join builds on it
	"SELECT a.v, a.x, s.z FROM a JOIN s ON a.v = s.j",
	"SELECT a.v, s.z FROM a JOIN s ON a.v = s.j AND a.x > s.z WHERE s.z < 4",
	"SELECT s.j, count(*), sum(a.x) FROM a, s WHERE a.k + 1 = s.j OR a.v = s.j GROUP BY s.j",
	"SELECT a.v, t.j FROM a JOIN (SELECT s.j FROM b, s WHERE b.w = s.j) t ON a.v = t.j",
	// three and four tables whose greedy order permutes the columns
	"SELECT a.x, b.y, s.z FROM a, b, s WHERE a.v = b.w AND b.w = s.j",
	"SELECT * FROM a JOIN b ON a.k = b.j JOIN s ON b.w = s.j WHERE a.v < 6 AND a.x < s.z + 8",
	"SELECT * FROM a, b, s, a c WHERE a.v = s.j AND b.w = s.j AND c.v = b.w AND c.x < 4 AND a.x + c.x > b.w",
	"SELECT a.v, c.x, s.z, b.y FROM a, a c, b, s WHERE a.v = c.v AND c.v + 0 = b.w AND s.j = a.v AND b.y <> 's0'",
}

// TestPlacementKeepsResults: for every query of the corpus, the optimized
// plan returns the rows the unoptimized build does, as multisets, at 1 and
// at 8 workers.
func TestPlacementKeepsResults(t *testing.T) {
	db := placementDB(t)
	for _, q := range placementCorpus {
		want := rowsOf(t, db, unoptimized(t, db, q), 1)
		for _, workers := range []int{1, 8} {
			n := optimized(t, db, q)
			if got := rowsOf(t, db, n, workers); !slices.Equal(got, want) {
				t.Errorf("%s\nworkers=%d: %d rows, unoptimized %d\n%s", q, workers, len(got), len(want), plan.ExplainTree(n))
			}
		}
	}
}

// TestPlacementKeepsLoopResults: the paper's SQL-centric k-Means and
// PageRank, by ITERATE and by recursive CTE, on tiny data, give the same
// rows optimized and not, at 1 and 8 workers; their plans are idempotent.
func TestPlacementKeepsLoopResults(t *testing.T) {
	km, err := bench.PrepareKMeans(bench.KMeansConfig{N: 200, D: 3, K: 4, Iters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := bench.PreparePageRank(bench.PageRankConfig{Vertices: 60, DirectedEdges: 400, Iters: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { km.DB.Close(); pr.DB.Close() })
	for _, c := range []struct {
		db *engine.DB
		q  string
	}{
		{km.DB, bench.KMeansIterateQuery(3, 3)},
		{km.DB, bench.KMeansRecursiveCTEQuery(3, 3)},
		{pr.DB, bench.PageRankIterateQuery(0.85, 4)},
		{pr.DB, bench.PageRankRecursiveCTEQuery(0.85, 4)},
	} {
		want := rowsOf(t, c.db, unoptimized(t, c.db, c.q), 1)
		if len(want) == 0 {
			t.Fatalf("no rows; test data broken:\n%s", c.q)
		}
		for _, workers := range []int{1, 8} {
			if got := rowsOf(t, c.db, optimized(t, c.db, c.q), workers); !slices.Equal(got, want) {
				t.Errorf("%s\nworkers=%d: %v, unoptimized %v", c.q, workers, got, want)
			}
		}
		assertIdempotent(t, c.db, c.q)
	}
}

// TestPlacementIsIdempotent: optimizing an optimized plan again changes
// nothing, also where a CTE referenced twice is placed once per reference.
func TestPlacementIsIdempotent(t *testing.T) {
	db := placementDB(t)
	for _, q := range append(placementCorpus,
		"WITH c AS (SELECT a.v, b.w FROM a JOIN b ON a.v = b.w WHERE b.y = 's3') SELECT * FROM c x JOIN c y ON x.v = y.w WHERE x.v < 4") {
		assertIdempotent(t, db, q)
	}
}

func assertIdempotent(t *testing.T, db *engine.DB, q string) {
	t.Helper()
	n := optimized(t, db, q)
	once := plan.ExplainTree(n)
	if twice := plan.ExplainTree(plan.OptimizeAccess(plan.Optimize(n), nil)); twice != once {
		t.Errorf("%s\noptimized:\n%s\nagain:\n%s", q, once, twice)
	}
}
