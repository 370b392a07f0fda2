package sql

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"testing"
)

// classifyRows has one row per concrete Statement type (plus the EXPLAIN
// variants, which classify by their inner statement).
var classifyRows = []struct {
	text string
	want Class
}{
	{"SELECT 1", Class{Kind: KindSelect, Name: "SELECT", ReadOnly: true}},
	{"WITH c AS (SELECT 1 AS x) SELECT x FROM c", Class{Kind: KindSelect, Name: "SELECT", ReadOnly: true}},
	{"INSERT INTO t VALUES (1)", Class{Kind: KindDML, Name: "INSERT", Writes: true}},
	{"UPDATE t SET x = 1", Class{Kind: KindDML, Name: "UPDATE", Writes: true}},
	{"DELETE FROM t", Class{Kind: KindDML, Name: "DELETE", Writes: true}},
	{"COPY t FROM '/tmp/x.csv'", Class{Kind: KindDML, Name: "COPY", Writes: true}},
	{"CREATE TABLE t (id INT)", Class{Kind: KindDDL, Name: "CREATE TABLE", Writes: true}},
	{"DROP TABLE t", Class{Kind: KindDDL, Name: "DROP TABLE", Writes: true}},
	{"CREATE INDEX i ON t (id)", Class{Kind: KindDDL, Name: "CREATE INDEX", Writes: true}},
	{"DROP INDEX i", Class{Kind: KindDDL, Name: "DROP INDEX", Writes: true}},
	{"BEGIN", Class{Kind: KindTxn, Name: "BEGIN", BeginsTxn: true}},
	{"COMMIT", Class{Kind: KindTxn, Name: "COMMIT", EndsTxn: true}},
	{"ROLLBACK", Class{Kind: KindTxn, Name: "ROLLBACK", EndsTxn: true}},
	{"EXPLAIN SELECT 1", Class{Kind: KindOther, Name: "SELECT", ReadOnly: true}},
	{"EXPLAIN ANALYZE SELECT 1", Class{Kind: KindOther, Name: "SELECT", ReadOnly: true}},
	{"EXPLAIN INSERT INTO t VALUES (1)", Class{Kind: KindOther, Name: "INSERT", ReadOnly: true}},
	{"EXPLAIN ANALYZE INSERT INTO t VALUES (1)", Class{Kind: KindOther, Name: "INSERT", Writes: true}},
	{"EXPLAIN ANALYZE UPDATE t SET x = 1", Class{Kind: KindOther, Name: "UPDATE", Writes: true}},
	{"EXPLAIN ANALYZE DELETE FROM t", Class{Kind: KindOther, Name: "DELETE", Writes: true}},
	{"CHECKPOINT", Class{Kind: KindOther, Name: "CHECKPOINT", Writes: true}},
	{"WAIT FOR CLOCK 7", Class{Kind: KindOther, Name: "WAIT FOR CLOCK", ReadOnly: true}},
	{"ANALYZE t", Class{Kind: KindOther, Name: "ANALYZE"}},
	{"PREPARE q AS SELECT 1", Class{Kind: KindOther, Name: "PREPARE"}},
	{"EXECUTE q", Class{Kind: KindOther, Name: "EXECUTE"}},
	{"DEALLOCATE q", Class{Kind: KindOther, Name: "DEALLOCATE"}},
	{"PROMOTE", Class{Kind: KindOther, Name: "PROMOTE"}},
	{"FOLLOW 'host:1'", Class{Kind: KindOther, Name: "FOLLOW"}},
}

func TestClassify(t *testing.T) {
	for _, row := range classifyRows {
		st, err := ParseOne(row.text)
		if err != nil {
			t.Fatalf("parse %q: %v", row.text, err)
		}
		if got := Classify(st); got != row.want {
			t.Errorf("Classify(%q) = %+v, want %+v", row.text, got, row.want)
		}
	}
}

// TestClassifyCoversEveryStatement walks ast.go for the concrete types that
// implement Statement and fails for any with no row in classifyRows, so a
// new statement cannot ship unclassified.
func TestClassifyCoversEveryStatement(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range classifyRows {
		st, err := ParseOne(row.text)
		if err != nil {
			t.Fatalf("parse %q: %v", row.text, err)
		}
		covered[fmt.Sprintf("%T", st)] = true
	}
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "stmtNode" || fn.Recv == nil {
			continue
		}
		star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			t.Fatalf("stmtNode receiver is not a pointer: %v", fn.Recv.List[0].Type)
		}
		found++
		name := "*sql." + star.X.(*ast.Ident).Name
		if !covered[name] {
			t.Errorf("%s implements Statement but has no row in classifyRows", name)
		}
	}
	if found == 0 {
		t.Fatal("found no Statement implementations in ast.go")
	}
}
