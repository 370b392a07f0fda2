package plan

import (
	"math"
	"strings"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/sql"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// testStore builds a catalog with two tables: t(a BIGINT, b DOUBLE, s
// VARCHAR) with 100 rows and u(a BIGINT, v DOUBLE) with 10 rows.
func testStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tt, err := s.CreateTable("t", types.Schema{
		{Name: "a", Type: types.Int64},
		{Name: "b", Type: types.Float64},
		{Name: "s", Type: types.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	uu, err := s.CreateTable("u", types.Schema{
		{Name: "a", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(tbl *storage.Table, n int) {
		tx := s.Begin()
		b := types.NewBatch(tbl.Schema())
		for i := 0; i < n; i++ {
			row := make([]types.Value, len(tbl.Schema()))
			for j, c := range tbl.Schema() {
				switch c.Type {
				case types.Int64:
					row[j] = types.NewInt(int64(i))
				case types.Float64:
					row[j] = types.NewFloat(float64(i))
				default:
					row[j] = types.NewString("x")
				}
			}
			b.AppendRow(row)
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fill(tt, 100)
	fill(uu, 10)
	return s
}

func buildPlan(t *testing.T, s *storage.Store, q string) Node {
	t.Helper()
	st, err := sql.ParseOne(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b := NewBuilder(s, s.Snapshot())
	n, err := b.BuildSelect(st.(*sql.Select))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return n
}

func TestFoldConstants(t *testing.T) {
	e := &expr.BinOp{Op: expr.OpMul, Typ: types.Int64,
		L: &expr.Const{Val: types.NewInt(6)},
		R: &expr.Const{Val: types.NewInt(7)}}
	got := Fold(e)
	c, ok := got.(*expr.Const)
	if !ok || c.Val.I != 42 {
		t.Errorf("Fold = %v", got)
	}
}

func TestFoldLeavesRuntimeErrors(t *testing.T) {
	// Integer modulo by zero must survive folding and fail at runtime.
	e := &expr.BinOp{Op: expr.OpMod, Typ: types.Int64,
		L: &expr.Const{Val: types.NewInt(1)},
		R: &expr.Const{Val: types.NewInt(0)}}
	if _, ok := Fold(e).(*expr.Const); ok {
		t.Error("1 % 0 should not fold to a constant")
	}
}

func TestFoldLeavesBigintOverflow(t *testing.T) {
	// A BIGINT result out of range must survive folding and fail at runtime.
	e := &expr.BinOp{Op: expr.OpAdd, Typ: types.Int64,
		L: &expr.Const{Val: types.NewInt(math.MaxInt64)},
		R: &expr.Const{Val: types.NewInt(1)}}
	if _, ok := Fold(e).(*expr.Const); ok {
		t.Error("9223372036854775807 + 1 should not fold to a constant")
	}
}

func TestFoldPartial(t *testing.T) {
	// a + (2*3) folds the right subtree only.
	e := &expr.BinOp{Op: expr.OpAdd, Typ: types.Int64,
		L: &expr.ColRef{Name: "a", Index: 0, Typ: types.Int64},
		R: &expr.BinOp{Op: expr.OpMul, Typ: types.Int64,
			L: &expr.Const{Val: types.NewInt(2)},
			R: &expr.Const{Val: types.NewInt(3)}}}
	got := Fold(e).(*expr.BinOp)
	if c, ok := got.R.(*expr.Const); !ok || c.Val.I != 6 {
		t.Errorf("right subtree = %v", got.R)
	}
	if _, ok := got.L.(*expr.ColRef); !ok {
		t.Errorf("left subtree = %v", got.L)
	}
}

func TestPushdownThroughJoin(t *testing.T) {
	s := testStore(t)
	n := buildPlan(t, s, `SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 5 AND u.v < 3`)
	tree := ExplainTree(n)
	// Both single-side predicates must sit below the join.
	idxJoin := strings.Index(tree, "Join")
	if idxJoin < 0 {
		t.Fatalf("no join in plan:\n%s", tree)
	}
	for _, frag := range []string{"(t.b > 5)", "(u.v < 3)"} {
		at := strings.Index(tree, frag)
		if at < 0 {
			t.Fatalf("predicate %s missing:\n%s", frag, tree)
		}
		if at < idxJoin {
			t.Errorf("predicate %s above the join:\n%s", frag, tree)
		}
	}
}

func TestPushdownSkipsLeftJoin(t *testing.T) {
	s := testStore(t)
	n := buildPlan(t, s, `SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.v < 3`)
	tree := ExplainTree(n)
	// The filter must stay above the left join (pushing would change
	// NULL-extension semantics).
	filterAt := strings.Index(tree, "Filter")
	joinAt := strings.Index(tree, "LeftJoin")
	if filterAt < 0 || joinAt < 0 {
		t.Fatalf("plan missing nodes:\n%s", tree)
	}
	if filterAt > joinAt {
		t.Errorf("filter pushed below left join:\n%s", tree)
	}
}

func TestBuildSideSwap(t *testing.T) {
	s := testStore(t)
	// t (100 rows) JOIN u (10 rows): the optimizer must put u on the build
	// (left) side and restore column order with a projection.
	n := buildPlan(t, s, `SELECT t.a, u.v FROM t JOIN u ON t.a = u.a`)
	var join *Join
	var walk func(Node)
	walk = func(n Node) {
		if j, ok := n.(*Join); ok {
			join = j
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	if join == nil {
		t.Fatalf("no join:\n%s", ExplainTree(n))
	}
	if ls, ok := join.L.(*Scan); !ok || ls.Alias != "u" {
		t.Errorf("build side should be u:\n%s", ExplainTree(n))
	}
}

func TestEquiKeyExtraction(t *testing.T) {
	s := testStore(t)
	n := buildPlan(t, s, `SELECT t.a FROM u JOIN t ON u.a = t.a AND u.v < t.b`)
	var join *Join
	var walk func(Node)
	walk = func(n Node) {
		if j, ok := n.(*Join); ok && join == nil {
			join = j
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	if join == nil {
		t.Fatal("no join")
	}
	if len(join.EquiLeft) != 1 || len(join.EquiRight) != 1 {
		t.Errorf("equi keys = %v / %v", join.EquiLeft, join.EquiRight)
	}
	if join.Residual == nil {
		t.Error("residual predicate missing")
	}
}

func TestSchemaOfAggregate(t *testing.T) {
	s := testStore(t)
	n := buildPlan(t, s, `SELECT s, count(*) AS c, sum(b) AS total FROM t GROUP BY s`)
	schema := n.Schema()
	want := types.Schema{
		{Name: "s", Type: types.String},
		{Name: "c", Type: types.Int64},
		{Name: "total", Type: types.Float64},
	}
	if !schema.Equal(want) {
		t.Errorf("schema = %v, want %v", schema, want)
	}
}

func TestCardinalityEstimates(t *testing.T) {
	s := testStore(t)
	scanCard := buildPlan(t, s, `SELECT a FROM t`).Card()
	if scanCard != 100 {
		t.Errorf("scan card = %v", scanCard)
	}
	filterCard := buildPlan(t, s, `SELECT a FROM t WHERE a = 1`).Card()
	if filterCard >= scanCard {
		t.Errorf("filter card %v should shrink below %v", filterCard, scanCard)
	}
	limitCard := buildPlan(t, s, `SELECT a FROM t LIMIT 5`).Card()
	if limitCard != 5 {
		t.Errorf("limit card = %v", limitCard)
	}
}

func TestMergeAdjacentFilters(t *testing.T) {
	s := testStore(t)
	// Subquery filter + outer filter collapse into one Filter node.
	n := buildPlan(t, s, `SELECT a FROM (SELECT a FROM t WHERE a > 1) q WHERE a < 9`)
	tree := ExplainTree(n)
	if strings.Count(tree, "Filter") != 1 {
		t.Errorf("filters not merged:\n%s", tree)
	}
}

func TestUnknownTableError(t *testing.T) {
	s := testStore(t)
	st, _ := sql.ParseOne(`SELECT * FROM missing`)
	b := NewBuilder(s, s.Snapshot())
	if _, err := b.BuildSelect(st.(*sql.Select)); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestIteratePlanShape(t *testing.T) {
	s := testStore(t)
	n := buildPlan(t, s, `SELECT * FROM ITERATE (
		(SELECT 1 "x"), (SELECT x + 1 FROM iterate), (SELECT x FROM iterate WHERE x > 5))`)
	// Unwrap Project on top.
	var it *Iterate
	var walk func(Node)
	walk = func(n Node) {
		if i, ok := n.(*Iterate); ok {
			it = i
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	if it == nil {
		t.Fatalf("no Iterate node:\n%s", ExplainTree(n))
	}
	if it.MaxDepth <= 0 {
		t.Error("MaxDepth must be positive (runaway protection)")
	}
	if len(it.Schema()) != 1 || it.Schema()[0].Name != "x" {
		t.Errorf("iterate schema = %v", it.Schema())
	}
}

func TestKMeansPlanValidation(t *testing.T) {
	s := testStore(t)
	// String column in the data input must be rejected at plan time.
	st, _ := sql.ParseOne(`SELECT * FROM KMEANS ((SELECT a, s FROM t), (SELECT a, v FROM u), 3)`)
	b := NewBuilder(s, s.Snapshot())
	if _, err := b.BuildSelect(st.(*sql.Select)); err == nil ||
		!strings.Contains(err.Error(), "numeric") {
		t.Errorf("expected numeric-type error, got %v", err)
	}
}

func TestExplainTreeIndentation(t *testing.T) {
	s := testStore(t)
	tree := ExplainTree(buildPlan(t, s, `SELECT a FROM t WHERE a > 1`))
	lines := strings.Split(strings.TrimSpace(tree), "\n")
	if len(lines) < 3 {
		t.Fatalf("tree = %q", tree)
	}
	if !strings.HasPrefix(lines[1], "  ") {
		t.Errorf("children not indented:\n%s", tree)
	}
}
