package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNaiveBayesKeepsBigintLabelsExact: the class label is read as the
// BIGINT it is, so labels that differ only above 2^53 — the same number as
// a DOUBLE — stay two classes.
func TestNaiveBayesKeepsBigintLabelsExact(t *testing.T) {
	for _, workers := range []int{1, 8} {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE tr (f DOUBLE, label BIGINT)`)
		db.MustExec(`INSERT INTO tr VALUES (1.0, 9007199254740992), (2.0, 9007199254740992),
			(10.0, 9007199254740993), (11.0, 9007199254740993)`)
		r, err := db.Query(`SELECT label, mean FROM NAIVE_BAYES_TRAIN ((SELECT f, label FROM tr)) ORDER BY label`)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(r.Rows)
		if len(r.Rows) != 2 || r.Rows[0][0].I != 9007199254740992 || r.Rows[0][1].F != 1.5 ||
			r.Rows[1][0].I != 9007199254740993 || r.Rows[1][1].F != 10.5 {
			t.Errorf("workers=%d: model (label, mean) = %s, want two classes with means 1.5 and 10.5", workers, got)
		}
	}
}

// TestAnalyticsLoaderRejectsNulls: a NULL in any operator's input fails
// with the message it always had, whichever column holds it.
func TestAnalyticsLoaderRejectsNulls(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE pts (x DOUBLE, y BIGINT, label BIGINT)`)
	db.MustExec(`INSERT INTO pts VALUES (1.0, 1, 0), (2.0, NULL, 1), (3.0, 3, NULL)`)
	db.MustExec(`CREATE TABLE cen (x DOUBLE, y BIGINT)`)
	db.MustExec(`INSERT INTO cen VALUES (1.0, 1)`)
	db.MustExec(`CREATE TABLE ed (src BIGINT, dst BIGINT)`)
	db.MustExec(`INSERT INTO ed VALUES (1, 2), (2, NULL)`)
	for _, tc := range []struct{ q, want string }{
		{`SELECT * FROM KMEANS ((SELECT x, y FROM pts), (SELECT x, y FROM cen), 3)`, `NULL in analytical input column "y"`},
		{`SELECT * FROM KMEANS ((SELECT x, y FROM cen), (SELECT x, y FROM pts), 3)`, `NULL in analytical input column "y"`},
		{`SELECT * FROM KMEANS_ASSIGN ((SELECT x, y FROM pts), (SELECT x, y FROM cen))`, `NULL in analytical input column "y"`},
		{`SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT x, label FROM pts))`, `NULL in analytical input column "label"`},
		{`SELECT * FROM NAIVE_BAYES_PREDICT ((SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT x, y FROM cen))),
			(SELECT y FROM pts))`, `NULL in analytical input column "y"`},
		{`SELECT * FROM PAGERANK ((SELECT src, dst FROM ed), 0.85, 0.0)`, `NULL vertex id in edge input`},
	} {
		if _, err := db.Query(tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.q, err, tc.want)
		}
	}
}

// TestAnalyticsMixedFeatureTypes: BIGINT and DOUBLE feature columns load
// side by side as the same numbers a DOUBLE-only input gives.
func TestAnalyticsMixedFeatureTypes(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE pts (a BIGINT, b DOUBLE, label BIGINT)`)
	db.MustExec(`INSERT INTO pts VALUES (0, 0.5, 0), (1, 0.25, 0), (9, 10.5, 1), (10, 9.75, 1), (11, 10.0, 1)`)
	db.MustExec(`CREATE TABLE cen (a BIGINT, b DOUBLE)`)
	db.MustExec(`INSERT INTO cen VALUES (1, 1.0), (8, 8.0)`)
	for _, q := range []string{
		`SELECT * FROM KMEANS ((SELECT %s, b FROM pts), (SELECT %s, b FROM cen), 5) ORDER BY cluster`,
		`SELECT * FROM KMEANS_ASSIGN ((SELECT %s, b FROM pts), (SELECT %s, b FROM cen))`,
		`SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT %s, b, label FROM pts)) ORDER BY label, feature`,
		`SELECT * FROM NAIVE_BAYES_PREDICT ((SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT %s, b, label FROM pts))),
			(SELECT %s, b FROM cen))`,
	} {
		mixed, err := db.Query(strings.ReplaceAll(q, "%s", "a"))
		if err != nil {
			t.Fatal(err)
		}
		double, err := db.Query(strings.ReplaceAll(q, "%s", "CAST(a AS DOUBLE) AS a"))
		if err != nil {
			t.Fatal(err)
		}
		if len(mixed.Rows) == 0 || len(mixed.Rows) != len(double.Rows) {
			t.Fatalf("%s: %d rows with a BIGINT feature, %d with it cast", q, len(mixed.Rows), len(double.Rows))
		}
		for i := range mixed.Rows {
			for j := range mixed.Rows[i] {
				if a, b := mixed.Rows[i][j], double.Rows[i][j]; a.AsFloat() != b.AsFloat() {
					t.Errorf("%s: row %d col %d: %v with a BIGINT feature, %v with it cast", q, i, j, a, b)
				}
			}
		}
	}
}

// TestAnalyticsOperatorsSameAtAnyWorkers runs every analytical operator on
// inputs large enough to split into morsels at Workers 1, 2 and 8: the
// loaders keep serial scan order and the kernels merge their per-morsel
// partials in morsel order, so every result is identical, row for row, and
// so is every kernel round (EXPLAIN ANALYZE's per-round lines). The
// integer-valued tables check the loaders; the real-valued ones (rv,
// redges) check the kernels' arithmetic, whose sums are not exact in any
// order.
func TestAnalyticsOperatorsSameAtAnyWorkers(t *testing.T) {
	const rows = 60_000
	dir := t.TempDir()
	write := func(name string, line func(i int) string) string {
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			sb.WriteString(line(i))
			sb.WriteByte('\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pts := write("pts.csv", func(i int) string {
		return fmt.Sprintf("%d,%d,%d,%d", i%97, (i*7919)%1000, (i*31)%50, i%3)
	})
	// Sparse vertex ids, every vertex with an out-edge.
	edges := write("edges.csv", func(i int) string {
		v := i % 5000
		return fmt.Sprintf("%d,%d,%d", v*1_000_003, ((v*7+i/5000)%5000)*1_000_003, 1+i%4)
	})
	r := rand.New(rand.NewSource(36))
	rv := write("rv.csv", func(i int) string {
		return fmt.Sprintf("%v,%v,%v,%d", r.Float64(), 10*r.NormFloat64(), r.ExpFloat64(), r.Intn(3))
	})
	redges := write("redges.csv", func(i int) string {
		return fmt.Sprintf("%d,%d,%v", r.Intn(5000), r.Intn(5000), r.Float64())
	})
	queries := []string{
		`SELECT * FROM KMEANS ((SELECT a, b, c FROM pts), (SELECT a, b, c FROM cen), 5)`,
		`SELECT * FROM KMEANS_ASSIGN ((SELECT a, b, c FROM pts), (SELECT a, b, c FROM cen))`,
		`SELECT * FROM PAGERANK ((SELECT src, dst FROM edges), 0.85, 0.0, 10)`,
		`SELECT * FROM PAGERANK ((SELECT src, dst, w FROM edges), λ(e) e.w, 0.85, 0.0, 10)`,
		`SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT a, b, c, label FROM pts))`,
		`SELECT * FROM NAIVE_BAYES_PREDICT ((SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT a, b, c, label FROM pts))),
			(SELECT a, b, c FROM pts))`,
		`SELECT * FROM KMEANS ((SELECT x, y, z FROM rv), (SELECT x, y, z FROM rcen), 100)`,
		`SELECT * FROM KMEANS ((SELECT x, y, z FROM rv), (SELECT x, y, z FROM rcen),
			λ(a, b) abs(a.x - b.x) + 0.5 * (a.y - b.y)^2 + abs(a.z - b.z), 100)`,
		`SELECT * FROM PAGERANK ((SELECT src, dst, w FROM redges), λ(e) e.w * e.w + 0.1, 0.85, 1e-9, 100)`,
		`SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT x, y, z, label FROM rv))`,
	}
	// The per-round lines of an EXPLAIN ANALYZE, without their times.
	rounds := func(db *DB, q string) []string {
		var out []string
		for _, line := range explainAnalyzeLines(t, db, q) {
			if i := strings.Index(line, "[iter "); i >= 0 {
				out = append(out, line[i:strings.Index(line, " time=")])
			}
		}
		return out
	}
	results := map[int][]string{}
	for _, workers := range []int{1, 2, 8} {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE pts (a BIGINT, b DOUBLE, c BIGINT, label BIGINT)`)
		db.MustExec(fmt.Sprintf(`COPY pts FROM '%s'`, pts))
		db.MustExec(`CREATE TABLE cen (a BIGINT, b DOUBLE, c BIGINT)`)
		db.MustExec(`INSERT INTO cen VALUES (10, 100.0, 5), (50, 500.0, 25), (90, 900.0, 45)`)
		db.MustExec(`CREATE TABLE edges (src BIGINT, dst BIGINT, w DOUBLE)`)
		db.MustExec(fmt.Sprintf(`COPY edges FROM '%s'`, edges))
		db.MustExec(`CREATE TABLE rv (x DOUBLE, y DOUBLE, z DOUBLE, label BIGINT)`)
		db.MustExec(fmt.Sprintf(`COPY rv FROM '%s'`, rv))
		db.MustExec(`CREATE TABLE rcen (x DOUBLE, y DOUBLE, z DOUBLE)`)
		db.MustExec(`INSERT INTO rcen VALUES (0.1, -5.5, 0.3), (0.5, 0.25, 1.7), (0.9, 5.5, 0.9), (0.3, 12.0, 3.1)`)
		db.MustExec(`CREATE TABLE redges (src BIGINT, dst BIGINT, w DOUBLE)`)
		db.MustExec(fmt.Sprintf(`COPY redges FROM '%s'`, redges))
		for _, q := range queries {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, q, err)
			}
			if len(r.Rows) == 0 {
				t.Fatalf("workers=%d: %s: no rows", workers, q)
			}
			results[workers] = append(results[workers], fmt.Sprint(r.Rows, rounds(db, q)))
		}
	}
	for i, q := range queries {
		for _, workers := range []int{2, 8} {
			if results[1][i] != results[workers][i] {
				t.Errorf("%s: results differ between Workers 1 and %d", q, workers)
			}
		}
	}
}
