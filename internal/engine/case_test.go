package engine

import (
	"fmt"
	"math"
	"testing"

	"lambdadb/internal/types"
)

// TestCaseRunsArmsOnTheirRows holds CASE, coalesce, least, greatest and
// substr to PostgreSQL's answers on five rows with NULLs, a zero divisor,
// BIGINT's maximum, 1e300 and NaN. A CASE arm is evaluated only on the rows
// its WHEN takes, so the guard idioms below succeed; least and greatest
// ignore NULL arguments, and NaN is above every number; substr is NULL
// where any argument is. The answers are PostgreSQL's, with NaN stored as
// 'NaN'::float8.
func TestCaseRunsArmsOnTheirRows(t *testing.T) {
	null := func(t types.Type) types.Value { return types.NewNull(t) }
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	rows := [][]types.Value{
		// id, a, b, k, x, y, s
		{i(1), i(7), i(0), i(2), f(1.25), null(types.Float64), s("hello")},
		{i(2), i(7), i(4), null(types.Int64), f(1e300), f(2.5), s("world")},
		{i(3), i(math.MaxInt64), i(2), i(1), null(types.Float64), null(types.Float64), s("abc")},
		{i(4), i(-5), null(types.Int64), null(types.Int64), f(-2.25), null(types.Float64), null(types.String)},
		{i(5), null(types.Int64), i(4), i(3), f(math.NaN()), f(0.5), s("xyz")},
	}
	cases := []struct{ q, want string }{
		// ROADMAP item 21's three statements.
		{`SELECT id, CASE WHEN b <> 0 THEN a % b ELSE 0 END FROM t ORDER BY id`,
			"[[1 0] [2 3] [3 1] [4 0] [5 NULL]]"},
		{`SELECT id, CASE WHEN a < 100 THEN a + 1 ELSE a END FROM t ORDER BY id`,
			"[[1 8] [2 8] [3 9223372036854775807] [4 -4] [5 NULL]]"},
		{`SELECT id, CASE WHEN x < 1e6 THEN CAST(x AS BIGINT) ELSE 0 END FROM t ORDER BY id`,
			"[[1 1] [2 0] [3 0] [4 -2] [5 0]]"},
		// A later WHEN reads only the rows no earlier WHEN took.
		{`SELECT id, CASE WHEN b = 0 THEN 0 WHEN a % b > 1 THEN 1 ELSE 2 END FROM t ORDER BY id`,
			"[[1 0] [2 1] [3 2] [4 2] [5 2]]"},
		// A CASE under an aggregate that reads the filter's selection.
		{`SELECT sum(CASE WHEN b <> 0 THEN a % b ELSE 0 END) FROM t WHERE a < 100`, "[[3]]"},
		{`SELECT a, sum(CASE WHEN b <> 0 THEN a % b ELSE 0 END) FROM t WHERE a < 100 GROUP BY a ORDER BY a`,
			"[[-5 0] [7 3]]"},
		{`SELECT id, CASE WHEN b = 0 THEN NULL ELSE a END FROM t ORDER BY id`,
			"[[1 NULL] [2 7] [3 9223372036854775807] [4 -5] [5 NULL]]"},
		{`SELECT id, coalesce(y, x, 0.0), coalesce(b, k) FROM t ORDER BY id`,
			"[[1 1.25 0] [2 2.5 4] [3 0 2] [4 -2.25 NULL] [5 0.5 4]]"},
		{`SELECT id, least(x, 1.0), greatest(x, 1.0), least(a, b), greatest(a, b, 5), least(x, y) FROM t ORDER BY id`,
			"[[1 1 1.25 0 7 1.25] [2 1 1e+300 4 7 2.5] [3 1 1 2 9223372036854775807 NULL] " +
				"[4 -2.25 1 -5 5 -2.25] [5 1 NaN 4 5 0.5]]"},
		{`SELECT id, substr(s, k), substr(s, 1, k) FROM t ORDER BY id`,
			"[[1 ello he] [2 NULL NULL] [3 abc a] [4 NULL NULL] [5 z xyz]]"},
	}
	for _, workers := range []int{1, 4} {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE t (id BIGINT, a BIGINT, b BIGINT, k BIGINT, x DOUBLE, y DOUBLE, s VARCHAR)`)
		bulkLoad(t, db, "t", func(b *types.Batch) {
			for _, r := range rows {
				b.AppendRow(r)
			}
		})
		for _, c := range cases {
			r, err := db.Query(c.q)
			if err != nil {
				t.Errorf("workers %d: %s: %v", workers, c.q, err)
				continue
			}
			if got := fmt.Sprint(r.Rows); got != c.want {
				t.Errorf("workers %d: %s\n got %s\nwant %s", workers, c.q, got, c.want)
			}
		}
	}
}
