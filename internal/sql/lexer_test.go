package sql

import (
	"strings"
	"testing"
)

func lexKinds(t *testing.T, src string) []token {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatalf("lexAll(%q): %v", src, err)
	}
	return toks[:len(toks)-1] // drop EOF
}

func TestLexKeywordsAndIdents(t *testing.T) {
	toks := lexKinds(t, "SELECT Foo FROM bar_baz")
	if toks[0].kind != tokKeyword || toks[0].text != "SELECT" {
		t.Errorf("tok 0 = %+v", toks[0])
	}
	if toks[1].kind != tokIdent || toks[1].text != "foo" {
		t.Errorf("identifiers fold to lower: %+v", toks[1])
	}
	if toks[3].text != "bar_baz" {
		t.Errorf("tok 3 = %+v", toks[3])
	}
	// Keywords are case-insensitive.
	toks = lexKinds(t, "select")
	if toks[0].kind != tokKeyword || toks[0].text != "SELECT" {
		t.Errorf("lowercase keyword: %+v", toks[0])
	}
}

func TestLexNumbers(t *testing.T) {
	for _, src := range []string{"42", "1.5", "0.0001", "1e3", "2.5E-2", ".5"} {
		toks := lexKinds(t, src)
		if len(toks) != 1 || toks[0].kind != tokNumber {
			t.Errorf("lex(%q) = %+v", src, toks)
		}
	}
	// A trailing dot is member access, not part of the number.
	toks := lexKinds(t, "a.b")
	if len(toks) != 3 || toks[1].text != "." {
		t.Errorf("a.b = %+v", toks)
	}
}

func TestLexStringsAndQuotedIdents(t *testing.T) {
	toks := lexKinds(t, `'it''s' "Col Name"`)
	if toks[0].kind != tokString || toks[0].text != "it's" {
		t.Errorf("string = %+v", toks[0])
	}
	if toks[1].kind != tokQuotedIdent || toks[1].text != "Col Name" {
		t.Errorf("quoted ident = %+v", toks[1])
	}
}

func TestLexLambdaRune(t *testing.T) {
	toks := lexKinds(t, "λ(a, b) a.x")
	if toks[0].kind != tokLambda {
		t.Errorf("λ = %+v", toks[0])
	}
}

func TestLexTwoCharSymbols(t *testing.T) {
	toks := lexKinds(t, "<> != <= >= || < > =")
	wants := []string{"<>", "<>", "<=", ">=", "||", "<", ">", "="}
	if len(toks) != len(wants) {
		t.Fatalf("toks = %+v", toks)
	}
	for i, w := range wants {
		if toks[i].text != w {
			t.Errorf("tok %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "1 -- comment to end of line\n+ /* block\ncomment */ 2")
	if len(toks) != 3 {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[1].text != "+" {
		t.Errorf("tok 1 = %+v", toks[1])
	}
	// An unterminated block comment is a positioned syntax error (it used
	// to be silently swallowed to EOF, hiding truncated statements).
	_, err := lexAll("1 /* never closed")
	if err == nil || !strings.Contains(err.Error(), "unterminated block comment") {
		t.Errorf("unterminated block: err = %v", err)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "@"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) should fail", src)
		}
	}
}

func TestLexErrorPosition(t *testing.T) {
	_, err := lexAll("SELECT 1\nFROM @bad")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v", err)
	}
}

func TestParseCopyStatement(t *testing.T) {
	st := mustParseOne(t, `COPY pts FROM '/tmp/data.csv' WITH HEADER DELIMITER '|'`)
	cp, ok := st.(*Copy)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if cp.Table != "pts" || cp.Path != "/tmp/data.csv" || !cp.Header || cp.Delimiter != '|' {
		t.Errorf("copy = %+v", cp)
	}
	st = mustParseOne(t, `COPY pts FROM 'x.csv'`)
	cp = st.(*Copy)
	if cp.Header || cp.Delimiter != 0 {
		t.Errorf("defaults = %+v", cp)
	}
	if _, err := Parse(`COPY pts FROM missing_quotes.csv`); err == nil {
		t.Error("unquoted path should fail")
	}
}

func TestParseExplainStatement(t *testing.T) {
	st := mustParseOne(t, `EXPLAIN SELECT 1`)
	ex, ok := st.(*Explain)
	if !ok || ex.Stmt == nil || ex.Analyze {
		t.Fatalf("got %T %+v", st, st)
	}
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Fatalf("EXPLAIN wraps %T", ex.Stmt)
	}
	st = mustParseOne(t, `EXPLAIN WITH q AS (SELECT 1) SELECT * FROM q`)
	if _, ok := st.(*Explain); !ok {
		t.Fatalf("EXPLAIN WITH: got %T", st)
	}

	st = mustParseOne(t, `EXPLAIN ANALYZE SELECT 1`)
	ex = st.(*Explain)
	if !ex.Analyze {
		t.Error("ANALYZE flag not set")
	}
	st = mustParseOne(t, `EXPLAIN ANALYZE INSERT INTO t SELECT * FROM u`)
	ex = st.(*Explain)
	if _, ok := ex.Stmt.(*Insert); !ok || !ex.Analyze {
		t.Fatalf("EXPLAIN ANALYZE INSERT: got %T analyze=%v", ex.Stmt, ex.Analyze)
	}
	st = mustParseOne(t, `EXPLAIN DELETE FROM t WHERE x > 1`)
	ex = st.(*Explain)
	if _, ok := ex.Stmt.(*Delete); !ok {
		t.Fatalf("EXPLAIN DELETE: got %T", ex.Stmt)
	}
	if _, err := Parse(`EXPLAIN CREATE TABLE t (x INT)`); err == nil {
		t.Error("EXPLAIN CREATE should fail")
	}
}

// TestSplitStatements: ParseScript records each statement's own source text.
func TestSplitStatements(t *testing.T) {
	_, parts, err := ParseScript("SELECT 1; -- c\n INSERT INTO t VALUES (1);; /* d */ PREPARE p AS SELECT ';' -- e")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT 1", "INSERT INTO t VALUES (1)", "PREPARE p AS SELECT ';' -- e"}
	if len(parts) != len(want) {
		t.Fatalf("parts = %q", parts)
	}
	for i := range want {
		if parts[i] != want[i] {
			t.Errorf("part %d = %q, want %q", i, parts[i], want[i])
		}
	}
}
