package engine

import (
	"fmt"
	"strings"
	"testing"
)

// explainText runs EXPLAIN [ANALYZE] on q and returns the plan as one string.
func explainText(t *testing.T, db *DB, q string) string {
	t.Helper()
	r, err := db.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	var sb strings.Builder
	for _, row := range r.Rows {
		sb.WriteString(row[0].S)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// newIndexedDB loads a 2000-row table with an ordered index on k, a hash
// index on grp, and fresh statistics.
func newIndexedDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE items (k BIGINT, grp BIGINT, v DOUBLE)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO items VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %g)", i, i%10, float64(i)*0.5)
	}
	db.MustExec(sb.String())
	db.MustExec(`CREATE INDEX items_k ON items (k)`)
	db.MustExec(`CREATE INDEX items_grp ON items (grp) USING HASH`)
	db.MustExec(`ANALYZE items`)
	return db
}

func TestCreateDropIndexSQL(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`CREATE INDEX nums_n ON nums (n)`)
	if _, err := db.Exec(`CREATE INDEX nums_n ON nums (n)`); err == nil {
		t.Fatal("duplicate CREATE INDEX should fail")
	}
	db.MustExec(`CREATE INDEX IF NOT EXISTS nums_n ON nums (n)`)

	r, err := db.Query(`SELECT index_name, column_name, kind, keys, entries
		FROM system.indexes WHERE table_name = 'nums'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("system.indexes rows = %v", r.Rows)
	}
	row := r.Rows[0]
	if row[0].S != "nums_n" || row[1].S != "n" || row[2].S != "ORDERED" {
		t.Errorf("index row = %v", row)
	}
	if row[3].I != 5 || row[4].I != 5 {
		t.Errorf("keys/entries = %d/%d, want 5/5", row[3].I, row[4].I)
	}

	db.MustExec(`DROP INDEX nums_n`)
	if _, err := db.Exec(`DROP INDEX nums_n`); err == nil {
		t.Fatal("dropping a missing index should fail")
	}
	db.MustExec(`DROP INDEX IF EXISTS nums_n`)
	r = db.MustExec(`SELECT count(*) FROM system.indexes`)
	if r.Rows[0][0].I != 0 {
		t.Errorf("indexes after drop = %v", r.Rows)
	}
}

func TestCreateIndexUnknownKind(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`CREATE INDEX nums_n ON nums (n) USING BITMAP`); err == nil {
		t.Fatal("unknown USING kind should fail")
	}
	// BTREE is accepted as a synonym for ORDERED.
	db.MustExec(`CREATE INDEX nums_n ON nums (n) USING BTREE`)
	r := db.MustExec(`SELECT kind FROM system.indexes WHERE index_name = 'nums_n'`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "ORDERED" {
		t.Fatalf("BTREE synonym = %v", r.Rows)
	}
}

func TestAnalyzeStatement(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`CREATE TABLE empty_t (x BIGINT)`)

	r, err := db.Exec(`ANALYZE nums`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "nums" || r.Rows[0][1].I != 5 {
		t.Fatalf("ANALYZE nums = %v", r.Rows)
	}

	// ANALYZE with no table covers every stored table, including empty ones.
	r, err = db.Exec(`ANALYZE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("ANALYZE all = %v", r.Rows)
	}

	stats := db.MustExec(`SELECT column_name, ndv, null_count
		FROM system.table_stats WHERE table_name = 'nums' ORDER BY column_name`)
	if len(stats.Rows) != 3 {
		t.Fatalf("table_stats rows = %v", stats.Rows)
	}
	// nums.n has five distinct non-null values.
	if stats.Rows[1][0].S != "n" || stats.Rows[1][1].I != 5 || stats.Rows[1][2].I != 0 {
		t.Errorf("stats for n = %v", stats.Rows[1])
	}

	if _, err := db.Exec(`ANALYZE no_such_table`); err == nil {
		t.Fatal("ANALYZE of a missing table should fail")
	}
}

func TestDropTableDropsStats(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`ANALYZE nums`)
	db.MustExec(`DROP TABLE nums`)
	r := db.MustExec(`SELECT count(*) FROM system.table_stats`)
	if r.Rows[0][0].I != 0 {
		t.Errorf("stats survived DROP TABLE: %v", r.Rows)
	}
}

// TestExplainIndexScanGolden pins the planner's access-path choices: a
// selective point probe uses the index, a low-selectivity predicate keeps
// the full scan.
func TestExplainIndexScanGolden(t *testing.T) {
	db := newIndexedDB(t)

	selective := explainText(t, db, `EXPLAIN SELECT v FROM items WHERE k = 123`)
	if !strings.Contains(selective, "IndexScan items using items_k (k = 123)") {
		t.Errorf("selective probe did not pick IndexScan:\n%s", selective)
	}
	if strings.Contains(selective, "Filter") {
		t.Errorf("fully absorbed predicate should leave no Filter:\n%s", selective)
	}

	ranged := explainText(t, db, `EXPLAIN SELECT v FROM items WHERE k >= 10 AND k < 20`)
	if !strings.Contains(ranged, "IndexScan items using items_k") {
		t.Errorf("range probe did not pick IndexScan:\n%s", ranged)
	}

	// grp has 10 distinct values: selectivity 0.1 clears the gate via the
	// hash index.
	point := explainText(t, db, `EXPLAIN SELECT v FROM items WHERE grp = 3`)
	if !strings.Contains(point, "IndexScan items using items_grp (grp = 3)") {
		t.Errorf("hash point probe did not pick IndexScan:\n%s", point)
	}

	// A predicate matching half the table must keep the sequential scan.
	wide := explainText(t, db, `EXPLAIN SELECT v FROM items WHERE k < 1000`)
	if strings.Contains(wide, "IndexScan") {
		t.Errorf("low-selectivity predicate picked IndexScan:\n%s", wide)
	}
	if !strings.Contains(wide, "Scan items") {
		t.Errorf("expected full scan:\n%s", wide)
	}
}

// TestExplainOptimizesModelApplicationInputs: the subqueries of
// kmeans_assign go through the same access-path and join-order passes as
// those of kmeans — every plan walk reaches them through the one
// child-mapper.
func TestExplainOptimizesModelApplicationInputs(t *testing.T) {
	db := newIndexedDB(t)
	db.MustExec(`CREATE TABLE c (k DOUBLE, v DOUBLE)`)
	db.MustExec(`INSERT INTO c VALUES (0.0, 0.0), (1000.0, 500.0)`)
	for _, fn := range []string{"kmeans", "kmeans_assign"} {
		out := explainText(t, db, `EXPLAIN SELECT * FROM `+fn+
			`((SELECT k, v FROM items WHERE k = 7), (SELECT k, v FROM c))`)
		if !strings.Contains(out, "IndexScan items using items_k (k = 7)") || strings.Contains(out, "Filter") {
			t.Errorf("%s data subquery did not pick the index probe:\n%s", fn, out)
		}
	}
	// Three relations written largest-first: greedy reordering starts from
	// the two-row table, under kmeans_assign exactly as under kmeans.
	db.MustExec(`CREATE TABLE tiny (k BIGINT)`)
	db.MustExec(`INSERT INTO tiny VALUES (1), (2)`)
	const join = `(SELECT a.k, b.v FROM items a JOIN items b ON a.k = b.k JOIN tiny ON b.k = tiny.k)`
	plans := map[string]string{}
	for _, fn := range []string{"kmeans", "kmeans_assign"} {
		out := explainText(t, db, `EXPLAIN SELECT * FROM `+fn+`(`+join+`, (SELECT k, v FROM c))`)
		plans[fn] = out[strings.Index(out, "Project a.k"):]
	}
	if plans["kmeans"] != plans["kmeans_assign"] || !strings.Contains(plans["kmeans_assign"], "Scan tiny\n") {
		t.Errorf("join under kmeans_assign is planned differently from the same join under kmeans:\n%s\nvs\n%s",
			plans["kmeans_assign"], plans["kmeans"])
	}
}

func TestExplainAnalyzeShowsEstimates(t *testing.T) {
	db := newIndexedDB(t)
	out := explainText(t, db, `EXPLAIN ANALYZE SELECT v FROM items WHERE k = 123`)
	if !strings.Contains(out, "IndexScan") {
		t.Fatalf("expected IndexScan:\n%s", out)
	}
	if !strings.Contains(out, "rows=1 est=1") {
		t.Errorf("expected est-vs-actual rows:\n%s", out)
	}

	// Index usage counters tick.
	r := db.MustExec(`SELECT value FROM system.metrics WHERE name = 'index_scans'`)
	if r.Rows[0][0].I < 1 {
		t.Errorf("index_scans = %d, want >= 1", r.Rows[0][0].I)
	}
}

// TestIndexedMatchesUnindexed is the differential check: the same workload
// against an indexed+analyzed database and a bare one must produce
// identical results. Run with -race; Workers=8 exercises the parallel
// pipeline around the serial index-scan leaf.
func TestIndexedMatchesUnindexed(t *testing.T) {
	load := func(indexed bool) *DB {
		db := Open(WithWorkers(8))
		db.MustExec(`CREATE TABLE items (k BIGINT, grp BIGINT, v DOUBLE)`)
		var sb strings.Builder
		sb.WriteString(`INSERT INTO items VALUES `)
		for i := 0; i < 3000; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %g)", i, i%7, float64(i%113)*1.25)
		}
		db.MustExec(sb.String())
		db.MustExec(`CREATE TABLE dims (grp BIGINT, label VARCHAR)`)
		db.MustExec(`INSERT INTO dims VALUES
			(0,'zero'),(1,'one'),(2,'two'),(3,'three'),(4,'four'),(5,'five'),(6,'six')`)
		// Delete a slice so MVCC visibility filtering is exercised through
		// the index path too.
		db.MustExec(`DELETE FROM items WHERE k >= 100 AND k < 150`)
		if indexed {
			db.MustExec(`CREATE INDEX items_k ON items (k)`)
			db.MustExec(`CREATE INDEX items_grp ON items (grp) USING HASH`)
			db.MustExec(`ANALYZE`)
		}
		return db
	}
	plain, fast := load(false), load(true)

	queries := []string{
		`SELECT k, v FROM items WHERE k = 777`,
		`SELECT k FROM items WHERE k = 120`, // deleted row: empty via both paths
		`SELECT k, v FROM items WHERE k >= 95 AND k <= 160 ORDER BY k`,
		`SELECT count(*), sum(v) FROM items WHERE grp = 3`,
		`SELECT label, count(*) FROM items JOIN dims ON items.grp = dims.grp
			WHERE k >= 200 AND k < 260 GROUP BY label ORDER BY label`,
		`SELECT count(*) FROM items`,
	}
	for _, q := range queries {
		want, err := plain.Query(q)
		if err != nil {
			t.Fatalf("unindexed %q: %v", q, err)
		}
		got, err := fast.Query(q)
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%q: %d rows indexed vs %d unindexed", q, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if want.Rows[i][j].Compare(got.Rows[i][j]) != 0 {
					t.Fatalf("%q row %d col %d: indexed %v, unindexed %v",
						q, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
	}
}

// TestNaNComparisonsMatchIndex: a float comparison with a NaN operand is
// false under =, <, <=, >, >= and true under <> (IEEE 754), so a filter and a
// float index — which never matches a NaN key — agree, and DML selects the
// same rows a query does.
func TestNaNComparisonsMatchIndex(t *testing.T) {
	load := func(indexed bool) *DB {
		db := Open(WithWorkers(2))
		db.MustExec(`CREATE TABLE t (id BIGINT, f DOUBLE)`)
		var sb strings.Builder
		sb.WriteString(`INSERT INTO t VALUES (2000, 0.0 / 0.0)`)
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&sb, ", (%d, %d.0)", i, i)
		}
		db.MustExec(sb.String())
		if indexed {
			db.MustExec(`CREATE INDEX tf ON t (f)`)
			db.MustExec(`ANALYZE`)
		}
		return db
	}
	plain, fast := load(false), load(true)
	if plan := explainText(t, fast, `EXPLAIN SELECT count(*) FROM t WHERE f = 7.0`); !strings.Contains(plan, "IndexScan") {
		t.Fatalf("f = 7.0 did not pick the index:\n%s", plan)
	}
	for q, want := range map[string]int64{
		`SELECT count(*) FROM t WHERE f = 7.0`:     1,
		`SELECT count(*) FROM t WHERE f <> 7.0`:    2000,
		`SELECT count(*) FROM t WHERE f < 1.0`:     1,
		`SELECT count(*) FROM t WHERE f <= 1.0`:    2,
		`SELECT count(*) FROM t WHERE f > 1997.0`:  2,
		`SELECT count(*) FROM t WHERE f >= 2.0`:    1998,
		`SELECT count(*) FROM t WHERE 7.0 = f`:     1,
		`SELECT count(*) FROM t WHERE f = f`:       2000,
		`SELECT count(*) FROM t WHERE f <> f`:      1,
		`SELECT count(*) FROM t WHERE f >= 1999.0`: 1,
	} {
		for name, db := range map[string]*DB{"unindexed": plain, "indexed": fast} {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			if got := r.Rows[0][0].I; got != want {
				t.Errorf("%s %q = %d, want %d", name, q, got, want)
			}
		}
	}
	for name, db := range map[string]*DB{"unindexed": plain, "indexed": fast} {
		r := db.MustExec(`UPDATE t SET id = id + 100 WHERE f = 1.0`)
		if r.Affected != 1 {
			t.Errorf("%s UPDATE ... WHERE f = 1.0 affected %d rows, want 1", name, r.Affected)
		}
	}
}

// TestIndexMaintainedThroughDML confirms probes see freshly inserted,
// updated, and deleted rows without re-ANALYZE (stats are advisory; the
// index itself is transactionally maintained).
func TestIndexMaintainedThroughDML(t *testing.T) {
	db := newIndexedDB(t)

	db.MustExec(`INSERT INTO items VALUES (5000, 1, 9.5)`)
	r := db.MustExec(`SELECT v FROM items WHERE k = 5000`)
	if len(r.Rows) != 1 || r.Rows[0][0].F != 9.5 {
		t.Fatalf("insert not visible through index: %v", r.Rows)
	}

	db.MustExec(`UPDATE items SET v = 10.5 WHERE k = 5000`)
	r = db.MustExec(`SELECT v FROM items WHERE k = 5000`)
	if len(r.Rows) != 1 || r.Rows[0][0].F != 10.5 {
		t.Fatalf("update not visible through index: %v", r.Rows)
	}

	db.MustExec(`DELETE FROM items WHERE k = 5000`)
	r = db.MustExec(`SELECT v FROM items WHERE k = 5000`)
	if len(r.Rows) != 0 {
		t.Fatalf("delete not visible through index: %v", r.Rows)
	}
}
