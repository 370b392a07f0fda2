package engine

import (
	"strings"
	"testing"
)

func TestCTEReferencedTwice(t *testing.T) {
	db := newTestDB(t)
	// Two references to the same CTE in one query (materialized once).
	got := queryInts(t, db, `WITH big AS (SELECT n FROM nums WHERE n > 2)
		SELECT a.n FROM big a JOIN big b ON a.n = b.n ORDER BY a.n`)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestNestedCTEs(t *testing.T) {
	// A CTE referencing another CTE — regression test for the shared-
	// materialization deadlock.
	db := newTestDB(t)
	got := queryInts(t, db, `WITH
		a AS (SELECT n FROM nums WHERE n > 1),
		b AS (SELECT n FROM a WHERE n < 5)
		SELECT n FROM b ORDER BY n`)
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestCTEShadowsTable(t *testing.T) {
	db := newTestDB(t)
	got := queryInts(t, db, `WITH nums AS (SELECT 42 AS n) SELECT n FROM nums`)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("CTE should shadow the base table, got %v", got)
	}
	// Out of the WITH scope, the base table is visible again.
	got = queryInts(t, db, `SELECT count(*) FROM nums`)
	if got[0] != 5 {
		t.Fatalf("base table rows = %v", got)
	}
}

func TestCTEColumnAliases(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`WITH renamed (a, b) AS (SELECT n, f FROM nums WHERE n = 1)
		SELECT a, b FROM renamed`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].I != 1 || r.Rows[0][1].F != 1.5 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Wrong arity must fail.
	if _, err := db.Query(`WITH x (a) AS (SELECT n, f FROM nums) SELECT a FROM x`); err == nil {
		t.Error("column alias arity mismatch should fail")
	}
}

func TestCTEInsideIterateIsPerIteration(t *testing.T) {
	// A CTE inside an ITERATE step that reads the working table must be
	// re-evaluated every iteration (epoch-scoped sharing), or the loop
	// would never progress.
	db := Open()
	got := queryInts(t, db, `SELECT * FROM ITERATE (
		(SELECT 1 "x"),
		(WITH doubled AS (SELECT x * 2 AS x FROM iterate) SELECT x FROM doubled),
		(SELECT x FROM iterate WHERE x >= 64))`)
	if len(got) != 1 || got[0] != 64 {
		t.Fatalf("got %v, want [64]", got)
	}
}

func TestInvariantCTEInsideIterate(t *testing.T) {
	// A CTE inside the step that does NOT read the working table is
	// loop-invariant; caching it across iterations must not change the
	// result.
	db := newTestDB(t)
	got := queryInts(t, db, `SELECT * FROM ITERATE (
		(SELECT 0 "x"),
		(WITH total AS (SELECT sum(n) AS s FROM nums)
		 SELECT x + t.s FROM iterate, total t),
		(SELECT x FROM iterate WHERE x >= 45))`)
	// sum(n) = 15; 0 → 15 → 30 → 45.
	if len(got) != 1 || got[0] != 45 {
		t.Fatalf("got %v, want [45]", got)
	}
}

func TestIterateInsideIterateStartsFromOuterWorkingTable(t *testing.T) {
	// The inner loop's init reads the outer working table; inside the inner
	// step and stop `iterate` is the inner one. Each loop's rounds bind
	// their own table without disturbing the other's.
	db := Open()
	got := queryInts(t, db, `SELECT * FROM ITERATE (
		(SELECT 0 "x"),
		(SELECT i.y FROM (SELECT * FROM ITERATE (
			(SELECT x + 1 "y" FROM iterate),
			(SELECT y + 1 FROM iterate),
			(SELECT y FROM iterate WHERE y % 5 = 0))) i),
		(SELECT x FROM iterate WHERE x >= 15))`)
	// 0 → (1 … 5) → (6 … 10) → (11 … 15).
	if len(got) != 1 || got[0] != 15 {
		t.Fatalf("got %v, want [15]", got)
	}
}

func TestCTEOverWholeLoopIsInvariant(t *testing.T) {
	// A loop that is wholly inside the CTE reads no working table of the
	// query around it: the CTE is computed once, wherever it is referenced.
	db := Open()
	const q = `WITH c AS (SELECT * FROM ITERATE (
			(SELECT 1 "x"), (SELECT x + 1 FROM iterate), (SELECT x FROM iterate WHERE x >= 3)))
		SELECT a.x + b.x FROM c a, c b`
	if got := queryInts(t, db, q); len(got) != 1 || got[0] != 6 {
		t.Fatalf("got %v, want [6]", got)
	}
	if plan := explainText(t, db, "EXPLAIN "+q); strings.Count(plan, "Shared (invariant)") != 2 {
		t.Errorf("the CTE over a whole loop is not marked invariant:\n%s", plan)
	}
}

func TestRecursiveCTEJoinsBaseTable(t *testing.T) {
	// BFS depth computation over a path graph.
	db := Open()
	db.MustExec(`CREATE TABLE e (s BIGINT, d BIGINT)`)
	db.MustExec(`INSERT INTO e VALUES (1,2),(2,3),(3,4),(4,5)`)
	r, err := db.Query(`WITH RECURSIVE walk (v, depth) AS (
		SELECT 1, 0
		UNION ALL
		SELECT e.d, walk.depth + 1 FROM walk JOIN e ON walk.v = e.s
	) SELECT v, depth FROM walk ORDER BY depth`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 || r.Rows[4][0].I != 5 || r.Rows[4][1].I != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestTwoIndependentIteratesInOneQuery(t *testing.T) {
	db := Open()
	got := queryInts(t, db, `SELECT a.x + b.y FROM
		(SELECT * FROM ITERATE ((SELECT 1 "x"), (SELECT x + 1 FROM iterate), (SELECT x FROM iterate WHERE x >= 3))) a,
		(SELECT * FROM ITERATE ((SELECT 10 "y"), (SELECT y + 10 FROM iterate), (SELECT y FROM iterate WHERE y >= 30))) b`)
	if len(got) != 1 || got[0] != 33 {
		t.Fatalf("got %v, want [33]", got)
	}
}
