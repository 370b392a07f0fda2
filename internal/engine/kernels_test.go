package engine

import (
	"strings"
	"testing"
)

// TestSQLNullOperandYieldsNull: a bare NULL on either side of a comparison
// or an arithmetic operator takes the other side's type, so a filter on it
// keeps no row and a projection of it is NULL; NULL <op> NULL is an error.
func TestSQLNullOperandYieldsNull(t *testing.T) {
	db := newTestDB(t)
	for q, want := range map[string]int64{
		`SELECT count(*) FROM nums WHERE f < NULL`:           0,
		`SELECT count(*) FROM nums WHERE NULL < f`:           0,
		`SELECT count(*) FROM nums WHERE n = NULL`:           0,
		`SELECT count(*) FROM nums WHERE NULL <> s`:          0,
		`SELECT count(*) FROM nums WHERE f > 2.0 AND NULL`:   0,
		`SELECT count(*) FROM nums WHERE NULL OR f > 2.0`:    4,
		`SELECT count(*) FROM nums WHERE n + NULL IS NULL`:   5,
		`SELECT count(*) FROM nums WHERE NULL * f IS NULL`:   5,
		`SELECT count(*) FROM nums WHERE n - 1 < NULL + n`:   0,
		`SELECT count(*) FROM nums WHERE NOT (n = NULL)`:     0,
		`SELECT count(*) FROM nums WHERE (n = NULL) IS NULL`: 5,
	} {
		if got := queryInts(t, db, q); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %d", q, got, want)
		}
	}
	r, err := db.Query(`SELECT f + NULL, NULL - n, n * NULL, NULL / f FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		for j, v := range row {
			if !v.Null {
				t.Errorf("row %d column %d = %v, want NULL", i, j, v)
			}
		}
	}
	for _, q := range []string{`SELECT NULL = NULL`, `SELECT NULL + NULL`, `SELECT count(*) FROM nums WHERE NULL < NULL`} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s: no error; NULL <op> NULL has no type", q)
		}
	}
}

// TestSQLBigintOverflowErrors: BIGINT +, -, *, unary - and abs raise
// "bigint out of range" (PostgreSQL's wording) instead of wrapping, in a
// constant expression, a projection and a DML statement, which then
// changes nothing.
func TestSQLBigintOverflowErrors(t *testing.T) {
	db := newTestDB(t)
	for _, q := range []string{
		`SELECT 9223372036854775807 + 1`,
		`SELECT n + 9223372036854775807 FROM nums`,
		`SELECT -9223372036854775807 - n FROM nums`,
		`SELECT n * 4611686018427387904 FROM nums`,
		`SELECT -(n - 9223372036854775807 - 2) FROM nums`,
		`SELECT abs(n - 9223372036854775807 - 2) FROM nums`,
		`UPDATE nums SET n = n * 9223372036854775807 WHERE n = 2`,
	} {
		if _, err := db.Exec(q); err == nil || !strings.Contains(err.Error(), "bigint out of range") {
			t.Errorf("%s: err = %v, want bigint out of range", q, err)
		}
	}
	if got := queryInts(t, db, `SELECT 9223372036854775806 + 1`); got[0] != 9223372036854775807 {
		t.Errorf("9223372036854775806 + 1 = %d", got[0])
	}
	if got := queryInts(t, db, `SELECT sum(n) FROM nums`); got[0] != 15 {
		t.Errorf("the failed UPDATE changed nums: sum(n) = %d", got[0])
	}
}

// TestOrderByQualifiedName: ORDER BY t.col binds to the output column
// projected from t's column, not to the first output column named col; an
// unqualified name two output columns share is ambiguous.
func TestOrderByQualifiedName(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE a (id BIGINT)`)
	db.MustExec(`CREATE TABLE b (id BIGINT)`)
	db.MustExec(`INSERT INTO a VALUES (1), (2), (3)`)
	db.MustExec(`INSERT INTO b VALUES (1), (1), (2), (3)`)
	for q, want := range map[string][][2]int64{
		`SELECT a.id, b.id FROM a JOIN b ON a.id <= b.id ORDER BY b.id DESC, a.id`: {
			{1, 3}, {2, 3}, {3, 3}, {1, 2}, {2, 2}, {1, 1}, {1, 1}},
		`SELECT a.id, b.id FROM a JOIN b ON a.id <= b.id ORDER BY a.id DESC, b.id`: {
			{3, 3}, {2, 2}, {2, 3}, {1, 1}, {1, 1}, {1, 2}, {1, 3}},
		`SELECT b.id, count(*) FROM a JOIN b ON a.id <= b.id GROUP BY b.id ORDER BY b.id DESC`: {
			{3, 3}, {2, 2}, {1, 2}},
	} {
		r, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(r.Rows), len(want))
		}
		for i, row := range r.Rows {
			if row[0].I != want[i][0] || row[1].I != want[i][1] {
				t.Errorf("%s row %d = %v, want %v", q, i, row, want[i])
			}
		}
	}
	_, err := db.Query(`SELECT a.id, b.id FROM a JOIN b ON a.id = b.id ORDER BY id`)
	if err == nil || !strings.Contains(err.Error(), `ORDER BY "id" is ambiguous`) {
		t.Errorf("ORDER BY id over a.id, b.id: err = %v, want it ambiguous", err)
	}
}
