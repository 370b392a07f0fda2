package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lambdadb/internal/types"
)

// lambdaTestDB is clusterTestDB plus a weighted edge table whose last
// weight is NULL.
func lambdaTestDB(t *testing.T) *DB {
	t.Helper()
	db := clusterTestDB(t)
	db.MustExec(`CREATE TABLE wg (src BIGINT, dest BIGINT, w DOUBLE)`)
	db.MustExec(`INSERT INTO wg VALUES (0, 1, 9.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, NULL)`)
	return db
}

// sameRows fails unless two results hold the same rows, bit for bit.
func sameRows(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
		t.Errorf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// TestLambdaParametersBindAtExecute: a $n inside a λ binds at EXECUTE like
// a $n anywhere else in the statement, so a prepared KMEANS, KMEANS_ASSIGN
// or PAGERANK returns what the query with the argument written in returns.
func TestLambdaParametersBindAtExecute(t *testing.T) {
	db := lambdaTestDB(t)
	s := db.NewSession()
	defer s.Close()
	for _, q := range []string{
		`SELECT * FROM KMEANS ((SELECT x, y FROM data), (SELECT x, y FROM center),
			λ(a, b) %s * (a.x - b.x)^2 + (a.y - b.y)^2, 3) ORDER BY cluster`,
		`SELECT x, y, cluster FROM KMEANS_ASSIGN ((SELECT x, y FROM data), (SELECT x, y FROM center),
			λ(a, b) abs(a.x - b.x) + %s * abs(a.y - b.y)) ORDER BY x`,
		`SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wg WHERE w IS NOT NULL),
			λ(e) e.w + %s, 0.85, 0.0, 20) ORDER BY vertex`,
	} {
		want, err := db.Query(fmt.Sprintf(q, "2.0"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("PREPARE p AS " + fmt.Sprintf(q, "$1")); err != nil {
			t.Fatalf("PREPARE: %v", err)
		}
		got, err := s.Exec(`EXECUTE p (2.0)`)
		if err != nil {
			t.Fatalf("EXECUTE %s: %v", q, err)
		}
		sameRows(t, q, got, want)
		if _, err := s.Exec(`DEALLOCATE p`); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLambdaNaNOrNullDistanceIsAnError: a distance λ that yields NaN — or
// NULL, from a CASE without ELSE — fails the statement with an error naming
// the λ, as a NaN, NULL or negative edge weight does. A NaN distance used to
// put every row in cluster 0.
func TestLambdaNaNOrNullDistanceIsAnError(t *testing.T) {
	db := clusterTestDB(t)
	for _, q := range []string{
		`SELECT * FROM KMEANS ((SELECT x, y FROM data), (SELECT x, y FROM center), λ(a, b) 0.0/0.0, 3)`,
		`SELECT * FROM KMEANS ((SELECT x, y FROM data), (SELECT x, y FROM center),
			λ(a, b) CASE WHEN a.x > b.x THEN a.x - b.x END, 3)`,
		`SELECT * FROM KMEANS_ASSIGN ((SELECT x, y FROM data), (SELECT x, y FROM center), λ(a, b) sqrt(a.x - b.x))`,
	} {
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "λ(a, b)") {
			t.Errorf("%s: err = %v, want an error naming the λ", q, err)
		}
	}
}

// TestLambdaBodiesAreSQLExpressions: a λ body is an ordinary SQL expression
// over its parameters' fields. coalesce and IS NULL work in it as in a WHERE
// clause, NULL fields included; a bare field name resolves when exactly one
// parameter has it; and an unknown or ambiguous name fails as it would in
// SQL, with the λ in the message.
func TestLambdaBodiesAreSQLExpressions(t *testing.T) {
	db := lambdaTestDB(t)
	query := func(q string) *Result {
		t.Helper()
		r, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return r
	}
	kmeans := `SELECT * FROM KMEANS ((SELECT x, y FROM data), (SELECT x, y FROM center), %s, 3) ORDER BY cluster`
	want := query(fmt.Sprintf(kmeans, `λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2`))
	for _, l := range []string{
		`λ(a, b) coalesce(a.x - b.x, 0.0)^2 + coalesce(a.y - b.y, 0.0)^2`,
		`λ(a, b) CASE WHEN a.x IS NULL THEN 0.0 ELSE (a.x - b.x)^2 + (a.y - b.y)^2 END`,
	} {
		sameRows(t, l, query(fmt.Sprintf(kmeans, l)), want)
	}

	pagerank := `SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wg), %s, 0.85, 0.0, 20) ORDER BY vertex`
	want = query(fmt.Sprintf(pagerank, `λ(e) CASE WHEN e.src = 2 THEN 1.0 ELSE e.w END`))
	for _, l := range []string{`λ(e) coalesce(e.w, 1.0)`, `λ(e) CASE WHEN w IS NULL THEN 1.0 ELSE w END`} {
		sameRows(t, l, query(fmt.Sprintf(pagerank, l)), want)
	}

	renamed := `SELECT * FROM KMEANS ((SELECT x AS u, y AS v FROM data), (SELECT x, y FROM center), %s, 3)`
	for l, msg := range map[string]string{
		`λ(a, b) x`:       `unknown column "x"`,
		`λ(a, b) u`:       `ambiguous column reference "u"`,
		`λ(a, b) a.u - z`: `unknown column "z"`,
	} {
		_, err := db.Query(fmt.Sprintf(renamed, l))
		if err == nil || !strings.Contains(err.Error(), msg) || !strings.Contains(err.Error(), "λ(a, b)") {
			t.Errorf("%s: err = %v, want %s and the λ", l, err, msg)
		}
	}
}

// TestExplainShowsLambdas: EXPLAIN prints each analytical operator's λ as it
// runs — bound and folded like any other expression, a BIGINT field read as
// DOUBLE.
func TestExplainShowsLambdas(t *testing.T) {
	db := lambdaTestDB(t)
	for q, want := range map[string]string{
		`EXPLAIN SELECT * FROM KMEANS ((SELECT x, y FROM data), (SELECT x, y FROM center), λ(a, b) abs(a.x - b.x) * (1 + 1), 3)`: `KMeans maxiter=3 dist=λ(a, b) (abs((a.x - b.x)) * 2)`,
		`EXPLAIN SELECT * FROM KMEANS_ASSIGN ((SELECT x, y FROM data), (SELECT x, y FROM center), λ(a, b) abs(a.y - b.y))`:       `KMeansAssign dist=λ(a, b) abs((a.y - b.y))`,
		`EXPLAIN SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wg), λ(e) e.w + e.src, 0.85, 0.0, 20)`:                        `PageRank d=0.85 eps=0 maxiter=20 weight=λ(e) (e.w + CAST(e.src AS DOUBLE))`,
	} {
		if got := explainText(t, db, q); !strings.Contains(got, want) {
			t.Errorf("%s:\n%s\nwant a line with %s", q, got, want)
		}
	}
}

// TestKMeansAssignAllocsPerRow: model application labels a whole input batch
// per kernel call, not one row per call with a goroutine each, so labelling
// 100k rows under the default metric allocates at most 0.05 times per row,
// the statement's plan and batches included.
func TestKMeansAssignAllocsPerRow(t *testing.T) {
	const n = 100_000
	db := Open(WithWorkers(1))
	db.MustExec(`CREATE TABLE pts (x DOUBLE, y DOUBLE)`)
	db.MustExec(`CREATE TABLE c (x DOUBLE, y DOUBLE)`)
	db.MustExec(`INSERT INTO c VALUES (0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)`)
	tbl, err := db.Store().Table("pts")
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBatch(tbl.Schema())
	for i := 0; i < n; i++ {
		b.Cols[0].AppendFloat(float64(i%500) / 100)
		b.Cols[1].AppendFloat(float64(i%300) / 60)
	}
	tx := db.Store().Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	q := `SELECT count(*) FROM KMEANS_ASSIGN ((SELECT x, y FROM pts), (SELECT x, y FROM c))`
	queryInts(t, db, q) // plan once, so the measured run hits the plan cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := queryInts(t, db, q)
	runtime.ReadMemStats(&after)
	if got[0] != n {
		t.Fatalf("count = %d, want %d", got[0], n)
	}
	if perRow := float64(after.Mallocs-before.Mallocs) / n; perRow > 0.05 {
		t.Errorf("KMEANS_ASSIGN allocates %.3f times per row, want at most 0.05", perRow)
	}
}
