package engine

import (
	"fmt"
	"strings"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// TestBuiltinsFollowTheirNullRule holds every scalar built-in to
// PostgreSQL's answers with NULL in each argument position: an untyped
// NULL, the NULL row of a typed column, and a $N that PREPARE types from its
// position, bound by EXECUTE to NULL and to the value the position holds
// otherwise. A strict function is NULL then; least and greatest skip a NULL
// argument, and coalesce takes the first that is not NULL.
func TestBuiltinsFollowTheirNullRule(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE nulls (i BIGINT, d DOUBLE, s VARCHAR)`)
	db.MustExec(`INSERT INTO nulls VALUES (NULL, NULL, NULL)`)
	type arg struct{ lit, col string } // a value, and the column whose row is a NULL of its type
	i := func(v string) arg { return arg{v, "i"} }
	d := func(v string) arg { return arg{v, "d"} }
	s := func(v string) arg { return arg{"'" + v + "'", "s"} }
	null := []string{"NULL", "NULL", "NULL"}
	calls := []struct {
		name  string
		args  []arg
		want  string   // PostgreSQL's answer
		nulls []string // PostgreSQL's answer with NULL in position k
	}{
		{"abs", []arg{i("-2")}, "2", null},
		{"abs", []arg{d("-2.5")}, "2.5", null},
		{"sign", []arg{i("-2")}, "-1", null},
		{"sign", []arg{d("2.5")}, "1", null},
		{"sqrt", []arg{d("4.0")}, "2", null},
		{"exp", []arg{d("0.0")}, "1", null},
		{"ln", []arg{d("1.0")}, "0", null},
		{"log", []arg{d("100.0")}, "2", null},
		{"floor", []arg{d("1.5")}, "1", null},
		{"ceil", []arg{d("1.5")}, "2", null},
		{"round", []arg{d("2.4")}, "2", null},
		{"sin", []arg{d("0.0")}, "0", null},
		{"cos", []arg{d("0.0")}, "1", null},
		{"pow", []arg{d("2.0"), d("3.0")}, "8", null},
		{"power", []arg{d("2.0"), d("0.5")}, "1.4142135623730951", null},
		{"least", []arg{i("1"), i("2")}, "1", []string{"2", "1"}},
		{"least", []arg{d("2.5"), i("1"), d("0.5")}, "0.5", []string{"0.5", "0.5", "1"}},
		{"greatest", []arg{d("1.5"), d("2.5")}, "2.5", []string{"2.5", "1.5"}},
		{"greatest", []arg{i("1"), i("3"), i("2")}, "3", []string{"3", "2", "3"}},
		{"coalesce", []arg{i("1"), i("2")}, "1", []string{"2", "1"}},
		{"coalesce", []arg{s("a"), s("b"), s("c")}, "a", []string{"b", "a", "a"}},
		{"length", []arg{s("abc")}, "3", null},
		{"lower", []arg{s("AbC")}, "abc", null},
		{"upper", []arg{s("AbC")}, "ABC", null},
		{"substr", []arg{s("hello"), i("2")}, "ello", null},
		{"substr", []arg{s("hello"), i("2"), i("3")}, "ell", null},
	}
	covered := map[string]bool{}
	query := func(q string) string {
		t.Helper()
		r, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return ""
		}
		return r.Rows[0][0].String()
	}
	sess := db.NewSession()
	defer sess.Close()
	execute := func(prepared, arg string) string {
		t.Helper()
		r, err := sess.Exec(`EXECUTE p (` + arg + `)`)
		if err != nil {
			t.Errorf("%s with $1 = %s: %v", prepared, arg, err)
			return ""
		}
		return r.Rows[0][0].String()
	}
	call := func(name string, args []arg, k int, at string) string {
		parts := make([]string, len(args))
		for j, a := range args {
			parts[j] = a.lit
			if j == k {
				parts[j] = at
			}
		}
		return fmt.Sprintf("SELECT %s(%s) FROM nulls", name, strings.Join(parts, ", "))
	}
	for _, c := range calls {
		covered[c.name] = true
		if got := query(call(c.name, c.args, -1, "")); got != c.want {
			t.Errorf("%s = %s, want %s", call(c.name, c.args, -1, ""), got, c.want)
		}
		for k, a := range c.args {
			for _, q := range []string{call(c.name, c.args, k, "NULL"), call(c.name, c.args, k, "nulls."+a.col)} {
				if got := query(q); got != c.nulls[k] {
					t.Errorf("%s = %s, want %s", q, got, c.nulls[k])
				}
			}
			q := call(c.name, c.args, k, "$1")
			if _, err := sess.Exec(`PREPARE p AS ` + q); err != nil {
				t.Errorf("PREPARE p AS %s: %v", q, err)
				continue
			}
			if got := execute(q, "NULL"); got != c.nulls[k] {
				t.Errorf("%s with $1 = NULL: %s, want %s", q, got, c.nulls[k])
			}
			if got := execute(q, a.lit); got != c.want {
				t.Errorf("%s with $1 = %s: %s, want %s", q, a.lit, got, c.want)
			}
			if _, err := sess.Exec(`DEALLOCATE p`); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range expr.ScalarFuncs() {
		if !covered[name] {
			t.Errorf("built-in %s has no row in this test", name)
		}
	}
}

// TestUntypedNullTakesItsPositionsType: an untyped NULL or $N in a
// condition, a LIKE, a CASE arm or a stored value takes the type that
// position asks for, and the statement returns PostgreSQL's answer.
func TestUntypedNullTakesItsPositionsType(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (x BIGINT, y DOUBLE, s VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES (1, 2.5, 'a'), (-3, NULL, 'b')`)
	db.MustExec(`INSERT INTO t VALUES (NULL, 5, lower(NULL))`)
	for q, want := range map[string]string{
		`SELECT count(*) FROM t WHERE NULL`:                 "0",
		`SELECT count(*) FROM t WHERE NOT NULL OR x > 0`:    "1",
		`SELECT count(*) FROM t a JOIN t b ON NULL`:         "0",
		`SELECT count(*) FROM t GROUP BY x > 0 HAVING NULL`: "",
		`SELECT CASE WHEN NULL THEN 1 ELSE 2 END`:           "2",
		`SELECT NOT NULL`:       "NULL",
		`SELECT NULL LIKE 'a%'`: "NULL",
		`SELECT CASE WHEN x > 0 THEN NULL END FROM t WHERE x = 1`:               "NULL",
		`SELECT s IS NULL AND y = 5 AND x IS NULL FROM t WHERE y > 4`:           "true",
		`SELECT coalesce(NULL, NULL) IS NULL`:                                   "true",
		`SELECT CASE WHEN x > 0 THEN NULL ELSE NULL END IS NULL FROM t LIMIT 1`: "true",
	} {
		r, err := db.Query(q)
		switch {
		case err != nil:
			t.Errorf("%s: %v", q, err)
		case want == "" && len(r.Rows) != 0:
			t.Errorf("%s: %d rows, want none", q, len(r.Rows))
		case want != "" && (len(r.Rows) != 1 || r.Rows[0][0].String() != want):
			t.Errorf("%s = %v, want %s", q, r.Rows, want)
		}
	}
	if r := db.MustExec(`SELECT CASE WHEN x > 0 THEN NULL END FROM t`); r.Rows[0][0].T != types.String {
		t.Errorf("CASE WHEN x > 0 THEN NULL END is %s, want VARCHAR", r.Rows[0][0].T)
	}
	for q, want := range map[string]int{`UPDATE t SET x = 0 WHERE NULL`: 0, `DELETE FROM t WHERE NULL`: 0} {
		if r := db.MustExec(q); r.Affected != want {
			t.Errorf("%s: %d rows, want %d", q, r.Affected, want)
		}
	}

	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(`PREPARE w AS SELECT count(*) FROM t WHERE $1`); err != nil {
		t.Fatal(err)
	}
	for arg, want := range map[string]int64{"true": 3, "false": 0, "NULL": 0} {
		if r, err := s.Exec(`EXECUTE w (` + arg + `)`); err != nil || r.Rows[0][0].I != want {
			t.Errorf("WHERE $1 with $1 = %s: %v, %v, want %d rows", arg, r, err, want)
		}
	}
	for _, q := range []string{`SELECT NULL = NULL`, `SELECT NULL AND NULL`, `SELECT x FROM t WHERE 1`,
		`SELECT CASE WHEN x > 0 THEN 'a' ELSE 1 END FROM t`, `SELECT substr(s, 1.5) FROM t`} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s: no error", q)
		}
	}
}
