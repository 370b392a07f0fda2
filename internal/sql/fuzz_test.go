package sql

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds is the shared corpus: the regression inputs from the three lexer
// bugfixes plus a spread of valid and deliberately broken statements.
var fuzzSeeds = []string{
	// Lexer regression inputs.
	`SELECT "my""col" FROM t`,
	"SELECT 1 /* oops",
	"SELECT 1\n/* nested /* ",
	"1e", "1e+", "1E-", "2.5e", "SELECT 3e+ FROM t",
	"٢\xa2e0", // non-ASCII digit: used to loop lexAll forever
	// Valid statements across the grammar.
	"SELECT 1",
	"SELECT x, count(*) FROM t WHERE id = 1 GROUP BY x HAVING count(*) > 2 ORDER BY x LIMIT 10",
	"SELECT a.x, b.y FROM a JOIN b ON a.id = b.id",
	"WITH c AS (SELECT 1 AS x) SELECT x FROM c",
	"INSERT INTO t VALUES (1, 'two', 3.5, true, NULL)",
	"UPDATE t SET x = x + 1 WHERE id = 2",
	"DELETE FROM t WHERE id = 3",
	"CREATE TABLE t (id BIGINT, s VARCHAR)",
	"CREATE INDEX idx ON t (id)",
	"PREPARE q (INT, TEXT) AS SELECT * FROM t WHERE id = $1 AND s = $2",
	"EXECUTE q (1, 'x')",
	"DEALLOCATE ALL",
	"EXPLAIN INSERT INTO t VALUES (1)",
	"EXPLAIN ANALYZE DELETE FROM t WHERE id = 3",
	"SELECT 'it''s', .5e1, 1e+3, 0x, $1 FROM t",
	// Statement splitting shapes.
	"SELECT 1; SELECT 2;",
	"SELECT ';' ; SELECT \"a;b\"",
	"-- comment only\n",
	"/* c */ SELECT 1 /* d */; UPDATE t SET x = ';'",
	// Broken things the front end must reject without panicking.
	"SELECT 'open",
	`SELECT "open`,
	"SELECT $",
	"SELECT $0",
	"SELECT (((",
	")", ";", "", "   ", "\x00", "\xff\xfe",
	"SELECT   FROM ",
}

// FuzzParse: Parse must never panic, and whatever it accepts must survive
// the downstream walkers (NumParams), the classifier and the plan-cache
// normalizer.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		for _, st := range stmts {
			if st == nil {
				t.Fatalf("Parse(%q) returned a nil statement", src)
			}
			if _, err := NumParams(st); err != nil {
				// Param-numbering gaps are a legitimate post-parse error.
				if !strings.Contains(err.Error(), "missing") {
					t.Fatalf("NumParams(%q) = %v", src, err)
				}
			}
			c := Classify(st)
			if c.Name == "" {
				t.Fatalf("Classify(%q): %T is unclassified", src, st)
			}
			if ex, ok := st.(*Explain); ok && !ex.Analyze && c.Writes {
				t.Fatalf("Classify(%q): EXPLAIN without ANALYZE reports Writes", src)
			}
		}
		// Normalize must not panic either; a parseable statement that is a
		// single statement must normalize successfully.
		NormalizeStatement(src)
	})
}

// FuzzSplitStatements: the statement texts ParseScript records are the one
// statement splitter. Each is a non-blank substring of the input that
// re-parses to exactly one statement of the same type, whose recorded text
// is itself.
func FuzzSplitStatements(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, texts, err := ParseScript(src)
		if err != nil {
			return
		}
		if len(texts) != len(stmts) {
			t.Fatalf("ParseScript(%q): %d statements, %d texts", src, len(stmts), len(texts))
		}
		for i, text := range texts {
			if strings.TrimSpace(text) == "" || !strings.Contains(src, text) {
				t.Fatalf("ParseScript(%q): text %q is blank or not a substring", src, text)
			}
			again, againTexts, err := ParseScript(text)
			if err != nil {
				t.Fatalf("re-parse of %q failed: %v", text, err)
			}
			if len(again) != 1 || reflect.TypeOf(again[0]) != reflect.TypeOf(stmts[i]) || againTexts[0] != text {
				t.Fatalf("re-parse of %q = %T %q, want one %T", text, again, againTexts, stmts[i])
			}
		}
	})
}
