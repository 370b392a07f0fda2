package engine

import (
	"math"
	"strings"
	"testing"
)

// TestDoubleToBigintOutOfRangeFails: a DOUBLE converted to BIGINT that is
// NaN, infinite or outside [-2^63, 2^63) fails with "bigint out of range",
// as BIGINT arithmetic does, instead of wrapping to -2^63 — in a CAST of a
// literal, a CAST of a column (bare, computed, and floored in the cast's own
// loop), an INSERT and an UPDATE into a BIGINT column, and a DOUBLE bound to
// a BIGINT placeholder. A value in range truncates toward zero, -2^63
// included, and a NULL row casts to NULL whatever its slot holds.
func TestDoubleToBigintOutOfRangeFails(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE f (x DOUBLE)`)
	db.MustExec(`CREATE TABLE u (k BIGINT)`)
	db.MustExec(`INSERT INTO u VALUES (1)`)
	outOfRange := []string{`1e300`, `-1e300`, `sqrt(-1.0)`, `9223372036854775807.0`, `1e308 * 10`, `-1e308 * 10`}
	var stmts []string
	for _, x := range outOfRange {
		stmts = append(stmts,
			`SELECT CAST(`+x+` AS BIGINT)`,
			`INSERT INTO u VALUES (`+x+`)`,
			`UPDATE u SET k = `+x)
	}
	for _, x := range outOfRange {
		db.MustExec(`DELETE FROM f`)
		db.MustExec(`INSERT INTO f VALUES (1.5), (NULL), (` + x + `), (-2.5)`)
		for _, q := range append(stmts, `SELECT CAST(x AS BIGINT) FROM f`, `SELECT CAST(x * 1 AS BIGINT) FROM f`,
			`SELECT CAST(floor(x) AS BIGINT) FROM f`) {
			if _, err := db.Exec(q); err == nil || !strings.Contains(err.Error(), "bigint out of range") {
				t.Errorf("%s with f holding %s: err = %v, want bigint out of range", q, x, err)
			}
		}
	}
	if got := queryInts(t, db, `SELECT k FROM u`); len(got) != 1 || got[0] != 1 {
		t.Errorf("u after the failed statements: %v, want [1]", got)
	}

	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(`PREPARE q (BIGINT) AS SELECT $1 + 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`EXECUTE q (1e300)`); err == nil || !strings.Contains(err.Error(), "bigint out of range") {
		t.Errorf("EXECUTE q (1e300) with $1 BIGINT: err = %v, want bigint out of range", err)
	}

	db.MustExec(`DELETE FROM f`)
	db.MustExec(`INSERT INTO f VALUES (2.9), (-2.9), (NULL), (-9223372036854775808.0), (9223372036854774784.0)`)
	r, err := db.Query(`SELECT CAST(x AS BIGINT), CAST(floor(x) AS BIGINT) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"2", "2"}, {"-2", "-3"}, {"NULL", "NULL"},
		{"-9223372036854775808", "-9223372036854775808"}, {"9223372036854774784", "9223372036854774784"}}
	for i, row := range r.Rows {
		if got := [2]string{row[0].String(), row[1].String()}; got != want[i] {
			t.Errorf("CAST(x AS BIGINT), CAST(floor(x) AS BIGINT) row %d = %v, want %v", i, got, want[i])
		}
	}
	if got := queryInts(t, db, `SELECT CAST(-9223372036854775808.0 AS BIGINT)`); got[0] != math.MinInt64 {
		t.Errorf("CAST(-2^63 AS BIGINT) = %d", got[0])
	}
	db.MustExec(`INSERT INTO u VALUES (-7.9)`)
	if got := queryInts(t, db, `SELECT k FROM u WHERE k < 0`); len(got) != 1 || got[0] != -7 {
		t.Errorf("INSERT of -7.9 into BIGINT stored %v, want [-7]", got)
	}
}
