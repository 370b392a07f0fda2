package engine

import (
	"strings"
	"testing"
)

// TestSubstrPositionsMatchPostgreSQL holds substr's position arithmetic to
// PostgreSQL's: the span [start, start+len) is placed first and clipped to
// the string after, so a start before the string eats into the length; a
// length past BIGINT's range does not wrap; a negative length fails.
func TestSubstrPositionsMatchPostgreSQL(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (s VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES ('hello')`)
	for q, want := range map[string]string{
		`SELECT substr(s, 0, 2) FROM t`:                                      "h",
		`SELECT substr(s, -1, 3) FROM t`:                                     "h",
		`SELECT substr(s, -5, 3) FROM t`:                                     "",
		`SELECT substr(s, 2, 9223372036854775807) FROM t`:                    "ello",
		`SELECT substr(s, -9223372036854775807, 9223372036854775807) FROM t`: "",
		`SELECT substr(s, 2, 0) FROM t`:                                      "",
		`SELECT substr(s, 2, 3) FROM t`:                                      "ell",
		`SELECT substr(s, 4, 10) FROM t`:                                     "lo",
		`SELECT substr(s, 6, 1) FROM t`:                                      "",
		`SELECT substr(s, 9223372036854775807, 5) FROM t`:                    "",
		`SELECT substr(s, 0) FROM t`:                                         "hello",
		`SELECT substr(s, 5) FROM t`:                                         "o",
		`SELECT substr(s, 9) FROM t`:                                         "",
	} {
		r, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if got := r.Rows[0][0].S; got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
	q := `SELECT substr(s, 2, -1) FROM t`
	if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "negative substring length not allowed") {
		t.Errorf("%s: error %v, want negative substring length not allowed", q, err)
	}
}
