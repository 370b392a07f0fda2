package engine

import (
	"math"
	"strings"
	"testing"
)

// weightedGraphDB loads an edge table with a per-edge weight property.
func weightedGraphDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE wedges (src BIGINT, dest BIGINT, w DOUBLE)`)
	// Vertex 0 splits its mass unevenly: 90% to 1, 10% to 2.
	// 1 and 2 both return everything to 0.
	db.MustExec(`INSERT INTO wedges VALUES
		(0, 1, 9.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)`)
	return db
}

func TestWeightedPageRankLambda(t *testing.T) {
	db := weightedGraphDB(t)
	r, err := db.Query(`SELECT * FROM PAGERANK (
		(SELECT src, dest, w FROM wedges),
		λ(e) e.w,
		0.85, 0.0, 100) ORDER BY vertex`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	rank := map[int64]float64{}
	var sum float64
	for _, row := range r.Rows {
		rank[row[0].I] = row[1].F
		sum += row[1].F
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank sum = %v", sum)
	}
	// The heavy edge makes vertex 1 outrank vertex 2 decisively.
	if rank[1] <= rank[2] {
		t.Errorf("rank[1]=%v should exceed rank[2]=%v under 9:1 weights", rank[1], rank[2])
	}
	// Analytic fixpoint: r1/r2 receive 0.9/0.1 of 0's damped mass.
	if ratio := (rank[1] - 0.05) / (rank[2] - 0.05); math.Abs(ratio-9) > 0.5 {
		t.Errorf("damped-mass ratio = %v, want ≈9", ratio)
	}
}

func TestWeightedPageRankUniformWeightsMatchUnweighted(t *testing.T) {
	// λ(e) 1.0 must reproduce the unweighted ranks exactly.
	db := Open()
	db.MustExec(`CREATE TABLE g (src BIGINT, dest BIGINT)`)
	db.MustExec(`INSERT INTO g VALUES (0,1),(1,2),(2,0),(0,2),(2,1)`)
	plain, err := db.Query(`SELECT vertex, rank FROM PAGERANK ((SELECT src, dest FROM g), 0.85, 0.0, 30) ORDER BY vertex`)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := db.Query(`SELECT vertex, rank FROM PAGERANK ((SELECT src, dest FROM g), λ(e) 1.0, 0.85, 0.0, 30) ORDER BY vertex`)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Rows {
		a, b := plain.Rows[i][1].F, weighted.Rows[i][1].F
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("vertex %d: unweighted %v vs uniform-weighted %v", i, a, b)
		}
	}
}

func TestWeightedPageRankComputedWeightExpr(t *testing.T) {
	// The lambda is an arbitrary expression over the edge tuple: weight
	// by inverse destination id (a contrived but computable metric).
	db := weightedGraphDB(t)
	r, err := db.Query(`SELECT count(*) FROM PAGERANK (
		(SELECT src, dest, w FROM wedges),
		λ(e) e.w * 2 + 1,
		0.85, 0.0, 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 3 {
		t.Errorf("vertices = %v", r.Rows[0][0])
	}
}

func TestWeightedPageRankErrors(t *testing.T) {
	db := weightedGraphDB(t)
	for _, q := range []string{
		// Extra columns without a lambda.
		`SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wedges), 0.85, 0.0)`,
		// Two-parameter lambda.
		`SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wedges), λ(a, b) a.w, 0.85, 0.0)`,
		// Lambda referencing a missing property.
		`SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wedges), λ(e) e.missing, 0.85, 0.0)`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	// Weights that are negative, NaN or infinite are a runtime error of the
	// pagerank operator.
	for _, w := range []string{`0.0 - e.w`, `0.0 / 0.0`, `sqrt(e.w - 1000)`, `1.0 / 0.0`} {
		q := `SELECT * FROM PAGERANK ((SELECT src, dest, w FROM wedges), λ(e) ` + w + `, 0.85, 0.0)`
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "pagerank") {
			t.Errorf("weight λ(e) %s: err = %v, want a pagerank error", w, err)
		}
	}
}

// TestWeightedPageRankLambdaCastIsSQLCast: a λ's CAST(… AS BIGINT) truncates
// as SQL's does, so on these non-negative weights it ranks exactly as
// floor(e.w) + 1. A cast to a type that is not a number, and a CASE without
// ELSE — NULL for the edges no branch matches — are rejected before the
// operator runs, by an error that names the λ.
func TestWeightedPageRankLambdaCastIsSQLCast(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE cw (src BIGINT, dest BIGINT, w DOUBLE)`)
	db.MustExec(`INSERT INTO cw VALUES (0, 1, 0.5), (0, 2, 2.0), (1, 2, 0.5), (2, 0, 0.5)`)
	query := func(weight string) (*Result, error) {
		return db.Query(`SELECT vertex, rank FROM PAGERANK ((SELECT src, dest, w FROM cw), λ(e) ` + weight + `, 0.85, 0.0, 50) ORDER BY vertex`)
	}
	cast, err := query(`CAST(e.w AS BIGINT) + 1`)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := query(`floor(e.w) + 1`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range floor.Rows {
		if got := cast.Rows[i][1].F; math.Abs(got-row[1].F) > 1e-12 {
			t.Errorf("vertex %v: CAST(e.w AS BIGINT) + 1 ranks %v, floor(e.w) + 1 ranks %v", row[0], got, row[1].F)
		}
	}
	for _, weight := range []string{`CAST(e.w AS VARCHAR)`, `CASE WHEN e.w > 1 THEN e.w END`} {
		if _, err := query(weight); err == nil || !strings.Contains(err.Error(), "λ(e)") {
			t.Errorf("λ(e) %s: err = %v, want a compile error naming the λ", weight, err)
		}
	}
}
