package sql

import (
	"strings"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

func mustParseOne(t *testing.T, src string) Statement {
	t.Helper()
	st, err := ParseOne(src)
	if err != nil {
		t.Fatalf("ParseOne(%q): %v", src, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := mustParseOne(t, `CREATE TABLE data (x FLOAT, y INTEGER, z FLOAT, desc1 VARCHAR(500))`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "data" || len(ct.Schema) != 4 {
		t.Fatalf("create = %+v", ct)
	}
	want := types.Schema{
		{Name: "x", Type: types.Float64},
		{Name: "y", Type: types.Int64},
		{Name: "z", Type: types.Float64},
		{Name: "desc1", Type: types.String},
	}
	if !ct.Schema.Equal(want) {
		t.Errorf("schema = %v, want %v", ct.Schema, want)
	}
}

func TestParseCreateTableIfNotExistsAndConstraints(t *testing.T) {
	st := mustParseOne(t, `CREATE TABLE IF NOT EXISTS t (id BIGINT PRIMARY KEY, v DOUBLE PRECISION NOT NULL)`)
	ct := st.(*CreateTable)
	if !ct.IfNotExists || len(ct.Schema) != 2 || ct.Schema[1].Type != types.Float64 {
		t.Errorf("create = %+v", ct)
	}
}

func TestParseInsertValues(t *testing.T) {
	st := mustParseOne(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if c, ok := ins.Rows[1][0].(*expr.Const); !ok || c.Val.I != 2 {
		t.Errorf("row[1][0] = %v", ins.Rows[1][0])
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := mustParseOne(t, `INSERT INTO t SELECT a, b FROM s WHERE a > 0`)
	ins := st.(*Insert)
	if ins.Query == nil {
		t.Fatal("expected INSERT ... SELECT")
	}
}

func TestParseSelectBasics(t *testing.T) {
	st := mustParseOne(t, `SELECT x, y + 1 AS y1 FROM t WHERE x > 2 GROUP BY x HAVING count(*) > 1 ORDER BY x DESC LIMIT 10 OFFSET 5`)
	sel := st.(*Select)
	core := sel.Body.(*SelectCore)
	if len(core.Items) != 2 || core.Items[1].Alias != "y1" {
		t.Fatalf("items = %+v", core.Items)
	}
	if core.Where == nil || len(core.GroupBy) != 1 || core.Having == nil {
		t.Error("missing clauses")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Error("order by missing")
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset missing")
	}
}

func TestParseSelectStarAndTableStar(t *testing.T) {
	st := mustParseOne(t, `SELECT *, t.* FROM t`)
	core := st.(*Select).Body.(*SelectCore)
	if !core.Items[0].Star || core.Items[1].TableStar != "t" {
		t.Errorf("items = %+v", core.Items)
	}
}

func TestParseImplicitAliasQuoted(t *testing.T) {
	// Listing 1 uses `SELECT 7 "x"`.
	st := mustParseOne(t, `SELECT 7 "x"`)
	core := st.(*Select).Body.(*SelectCore)
	if core.Items[0].Alias != "x" {
		t.Errorf("alias = %q", core.Items[0].Alias)
	}
}

func TestParseJoins(t *testing.T) {
	st := mustParseOne(t, `SELECT a.x FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id, d`)
	core := st.(*Select).Body.(*SelectCore)
	j, ok := core.From.(*Join)
	if !ok || j.Type != CrossJoin {
		t.Fatalf("outermost join = %+v", core.From)
	}
	lj := j.L.(*Join)
	if lj.Type != LeftJoin || lj.On == nil {
		t.Fatalf("left join = %+v", lj)
	}
	ij := lj.L.(*Join)
	if ij.Type != InnerJoin {
		t.Fatalf("inner join = %+v", ij)
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	st := mustParseOne(t, `SELECT s.x FROM (SELECT x FROM t) AS s`)
	core := st.(*Select).Body.(*SelectCore)
	sq, ok := core.From.(*Subquery)
	if !ok || sq.Alias != "s" {
		t.Fatalf("from = %+v", core.From)
	}
}

func TestParseUnion(t *testing.T) {
	st := mustParseOne(t, `SELECT 1 UNION ALL SELECT 2 UNION SELECT 3`)
	sel := st.(*Select)
	outer, ok := sel.Body.(*SetOp)
	if !ok || outer.All {
		t.Fatalf("outer = %+v", sel.Body)
	}
	inner := outer.L.(*SetOp)
	if !inner.All {
		t.Error("inner should be UNION ALL")
	}
}

func TestParseWithRecursive(t *testing.T) {
	src := `WITH RECURSIVE r (n) AS (
		SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 10
	) SELECT * FROM r`
	st := mustParseOne(t, src)
	sel := st.(*Select)
	if len(sel.With) != 1 || !sel.With[0].Recursive || sel.With[0].Name != "r" {
		t.Fatalf("with = %+v", sel.With)
	}
	if len(sel.With[0].Columns) != 1 || sel.With[0].Columns[0] != "n" {
		t.Errorf("columns = %v", sel.With[0].Columns)
	}
}

func TestParseIterate(t *testing.T) {
	// The paper's Listing 1.
	src := `SELECT * FROM ITERATE ((SELECT 7 "x"),
		(SELECT x + 7 FROM iterate),
		(SELECT x FROM iterate WHERE x >= 100))`
	st := mustParseOne(t, src)
	core := st.(*Select).Body.(*SelectCore)
	tf, ok := core.From.(*TableFunc)
	if !ok || tf.Name != "iterate" {
		t.Fatalf("from = %+v", core.From)
	}
	if len(tf.Args) != 3 {
		t.Fatalf("args = %d, want 3", len(tf.Args))
	}
	for i, a := range tf.Args {
		if a.Query == nil {
			t.Errorf("arg %d should be a subquery", i)
		}
	}
}

func TestParseKMeansWithLambda(t *testing.T) {
	// The paper's Listing 3.
	src := `SELECT * FROM KMEANS (
		(SELECT x, y FROM data),
		(SELECT x, y FROM center),
		λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2,
		3)`
	st := mustParseOne(t, src)
	core := st.(*Select).Body.(*SelectCore)
	tf := core.From.(*TableFunc)
	if tf.Name != "kmeans" || len(tf.Args) != 4 {
		t.Fatalf("tf = %+v", tf)
	}
	if tf.Args[0].Query == nil || tf.Args[1].Query == nil {
		t.Error("first two args must be subqueries")
	}
	l := tf.Args[2].Lambda
	if l == nil || len(l.Params) != 2 || l.Params[0] != "a" {
		t.Fatalf("lambda = %+v", l)
	}
	// Lambda body references are columns qualified by a parameter.
	sawParam := false
	expr.Walk(l.Body, func(e expr.Expr) bool {
		if c, ok := e.(*expr.ColRef); ok {
			if c.Table != "a" && c.Table != "b" {
				t.Errorf("lambda body reference %v is not qualified by a parameter", e)
			}
			sawParam = true
		}
		return true
	})
	if !sawParam {
		t.Error("lambda body has no parameter fields")
	}
	if tf.Args[3].Scalar == nil {
		t.Error("fourth arg should be a scalar")
	}
}

func TestParseLambdaKeywordSpelling(t *testing.T) {
	src := `SELECT * FROM KMEANS ((SELECT x FROM d), (SELECT x FROM c), LAMBDA(a, b) abs(a.x - b.x), 5)`
	st := mustParseOne(t, src)
	tf := st.(*Select).Body.(*SelectCore).From.(*TableFunc)
	if tf.Args[2].Lambda == nil {
		t.Fatal("LAMBDA spelling not parsed")
	}
}

func TestParsePageRank(t *testing.T) {
	// The paper's Listing 2.
	src := `SELECT * FROM PAGERANK ((SELECT src, dest FROM edges), 0.85, 0.0001)`
	st := mustParseOne(t, src)
	tf := st.(*Select).Body.(*SelectCore).From.(*TableFunc)
	if tf.Name != "pagerank" || len(tf.Args) != 3 {
		t.Fatalf("tf = %+v", tf)
	}
	if tf.Args[1].Scalar == nil || tf.Args[2].Scalar == nil {
		t.Error("damping/epsilon should be scalars")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParseOne(t, `SELECT 1 + 2 * 3 ^ 2`)
	item := st.(*Select).Body.(*SelectCore).Items[0]
	// Expect 1 + (2 * (3 ^ 2)).
	add := item.Expr.(*expr.BinOp)
	if add.Op != expr.OpAdd {
		t.Fatalf("top op = %v", add.Op)
	}
	mul := add.R.(*expr.BinOp)
	if mul.Op != expr.OpMul {
		t.Fatalf("second op = %v", mul.Op)
	}
	pow := mul.R.(*expr.BinOp)
	if pow.Op != expr.OpPow {
		t.Fatalf("third op = %v", pow.Op)
	}
}

func TestParsePowerRightAssociative(t *testing.T) {
	st := mustParseOne(t, `SELECT 2 ^ 3 ^ 2`)
	e := st.(*Select).Body.(*SelectCore).Items[0].Expr.(*expr.BinOp)
	if _, ok := e.R.(*expr.BinOp); !ok {
		t.Error("^ should be right associative")
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	st := mustParseOne(t, `SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND y IN (1, 2, 3) AND z NOT IN (4)`)
	core := st.(*Select).Body.(*SelectCore)
	if core.Where == nil {
		t.Fatal("where missing")
	}
	s := core.Where.String()
	for _, frag := range []string{">=", "<=", "OR", "NOT"} {
		if !strings.Contains(s, frag) {
			t.Errorf("desugared WHERE %q missing %q", s, frag)
		}
	}
}

func TestParseCaseForms(t *testing.T) {
	st := mustParseOne(t, `SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t`)
	if _, ok := st.(*Select).Body.(*SelectCore).Items[0].Expr.(*expr.Case); !ok {
		t.Error("searched CASE not parsed")
	}
	st = mustParseOne(t, `SELECT CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t`)
	c := st.(*Select).Body.(*SelectCore).Items[0].Expr.(*expr.Case)
	if len(c.Whens) != 2 {
		t.Fatalf("simple CASE arms = %d", len(c.Whens))
	}
	// Simple CASE desugars to equality conditions.
	if b, ok := c.Whens[0].Cond.(*expr.BinOp); !ok || b.Op != expr.OpEq {
		t.Error("simple CASE should desugar to =")
	}
}

func TestParseStringEscapes(t *testing.T) {
	st := mustParseOne(t, `SELECT 'it''s'`)
	c := st.(*Select).Body.(*SelectCore).Items[0].Expr.(*expr.Const)
	if c.Val.S != "it's" {
		t.Errorf("string = %q", c.Val.S)
	}
}

func TestParseComments(t *testing.T) {
	src := `SELECT 1 -- trailing comment
	/* block
	   comment */ + 2`
	st := mustParseOne(t, src)
	if st == nil {
		t.Fatal("nil statement")
	}
}

func TestParseNumbers(t *testing.T) {
	st := mustParseOne(t, `SELECT 42, 1.5, 0.0001, 1e3, 2.5e-2, .5`)
	items := st.(*Select).Body.(*SelectCore).Items
	wantFloats := map[int]float64{1: 1.5, 2: 0.0001, 3: 1000, 4: 0.025, 5: 0.5}
	if c := items[0].Expr.(*expr.Const); c.Val.T != types.Int64 || c.Val.I != 42 {
		t.Errorf("int literal = %v", c.Val)
	}
	for i, w := range wantFloats {
		c := items[i].Expr.(*expr.Const)
		if c.Val.T != types.Float64 || c.Val.F != w {
			t.Errorf("item %d = %v, want %v", i, c.Val, w)
		}
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st := mustParseOne(t, `UPDATE t SET a = a + 1, b = 'x' WHERE a < 10`)
	upd := st.(*Update)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Fatalf("update = %+v", upd)
	}
	st = mustParseOne(t, `DELETE FROM t WHERE a = 1`)
	del := st.(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseTxnStatements(t *testing.T) {
	stmts, err := Parse(`BEGIN; COMMIT; ROLLBACK;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
	if _, ok := stmts[0].(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := stmts[1].(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := stmts[2].(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := Parse(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT FROM t`,            // missing select list
		`SELECT * FROM`,            // missing table
		`CREATE TABLE t`,           // missing column list
		`INSERT INTO t`,            // missing VALUES/SELECT
		`SELECT * FROM t WHERE`,    // missing predicate
		`SELECT 'unterminated`,     // bad string
		`SELECT * FROM t GROUP x`,  // missing BY
		`SELECT 1 +`,               // incomplete expression
		`SELECT count(DISTINCT x)`, // unsupported
		`SELECT * FROM t ORDER x`,  // missing BY
		`FOO BAR`,                  // unknown statement
		`SELECT CASE END`,          // CASE with no arms
		`SELECT cast(1 AS blob)`,   // unknown type
		`CREATE TABLE t (a BLOB)`,  // unknown column type
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT *\nFROM")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should carry line info, got %v", err)
	}
}

func TestParseNaiveBayesFuncs(t *testing.T) {
	src := `SELECT * FROM NAIVE_BAYES_PREDICT (
		(SELECT * FROM NAIVE_BAYES_TRAIN ((SELECT f1, f2, label FROM train))),
		(SELECT f1, f2 FROM test))`
	st := mustParseOne(t, src)
	tf := st.(*Select).Body.(*SelectCore).From.(*TableFunc)
	if tf.Name != "naive_bayes_predict" || len(tf.Args) != 2 {
		t.Fatalf("tf = %+v", tf)
	}
	inner := tf.Args[0].Query.Body.(*SelectCore).From.(*TableFunc)
	if inner.Name != "naive_bayes_train" {
		t.Fatalf("inner = %+v", inner)
	}
}
