package engine

import (
	"context"
	"slices"
	"testing"

	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// TestEveryEntryPathLogsEachStatementOnce: however a statement enters the
// engine — ad-hoc text on a plan-cache miss or hit, DB.Query, EXECUTE, a
// Bind frame's ExecutePrepared, EXPLAIN ANALYZE, a script — it leaves
// exactly one system.query_log row with its own text, one by-kind latency
// sample and one parse_plan + exec stage sample. A cache hit records no
// parse or plan time; text that does not parse runs (and logs) nothing; any
// error aborts the open transaction.
func TestEveryEntryPathLogsEachStatementOnce(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (id BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(`PREPARE q AS SELECT id FROM t WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	exec := func(text string) func() error {
		return func() error { _, err := s.Exec(text); return err }
	}
	query := func(text string) func() error {
		return func() error { _, err := db.Query(text); return err }
	}
	m, h := db.Metrics(), db.Metrics().Hist()
	byKind := map[string]*telemetry.Histogram{"select": &h.StmtSelect, "dml": &h.StmtDML, "ddl": &h.StmtDDL, "other": &h.StmtOther}

	for _, c := range []struct {
		name         string
		inTxn        bool // run inside an explicit transaction opened first
		run          func() error
		texts        []string // query_log rows, in order
		kinds        []string // by-kind histogram samples, in order
		hits, misses int64
		noFrontEnd   bool // a cache hit with no text to parse: zero parse+plan time
		fails        bool
	}{
		{name: "ad-hoc miss", run: exec(`SELECT id FROM t WHERE id = 1`),
			texts: []string{`SELECT id FROM t WHERE id = 1`}, kinds: []string{"select"}, misses: 1},
		{name: "ad-hoc hit", run: exec(`SELECT id FROM t WHERE id = 1`),
			texts: []string{`SELECT id FROM t WHERE id = 1`}, kinds: []string{"select"}, hits: 1, noFrontEnd: true},
		{name: "DB.Query miss", run: query(`SELECT id FROM t WHERE id = 2`),
			texts: []string{`SELECT id FROM t WHERE id = 2`}, kinds: []string{"select"}, misses: 1},
		{name: "DB.Query hit", run: query(`SELECT id FROM t WHERE id = 2`),
			texts: []string{`SELECT id FROM t WHERE id = 2`}, kinds: []string{"select"}, hits: 1, noFrontEnd: true},
		{name: "EXECUTE", run: exec(`EXECUTE q (3)`),
			texts: []string{`EXECUTE q (3)`}, kinds: []string{"other"}, hits: 1},
		{name: "ExecutePrepared", run: func() error {
			_, err := s.ExecutePrepared(context.Background(), "q", []types.Value{types.NewInt(3)})
			return err
		}, texts: []string{`EXECUTE q`}, kinds: []string{"select"}, hits: 1, noFrontEnd: true},
		{name: "EXPLAIN ANALYZE SELECT", run: exec(`EXPLAIN ANALYZE SELECT count(*) FROM t`),
			texts: []string{`EXPLAIN ANALYZE SELECT count(*) FROM t`}, kinds: []string{"other"}},
		{name: "EXPLAIN ANALYZE INSERT ... SELECT", run: exec(`EXPLAIN ANALYZE INSERT INTO t SELECT id + 10 FROM t`),
			texts: []string{`EXPLAIN ANALYZE INSERT INTO t SELECT id + 10 FROM t`}, kinds: []string{"other"}},
		{name: "three-statement script", run: exec("INSERT INTO t VALUES (7);\n  SELECT count(*) FROM t; -- n\nUPDATE t SET id = 8 WHERE id = 7;"),
			texts: []string{`INSERT INTO t VALUES (7)`, `SELECT count(*) FROM t`, `UPDATE t SET id = 8 WHERE id = 7`},
			kinds: []string{"dml", "select", "dml"}},
		{name: "parse error", inTxn: true, run: exec(`SELEC id FROM t`), fails: true},
		{name: "parse error in a lone SELECT", inTxn: true, run: exec(`SELECT id FROM`), misses: 1, fails: true},
		{name: "mid-script error inside BEGIN", run: exec(`BEGIN; INSERT INTO t VALUES (9); SELECT * FROM nope; INSERT INTO t VALUES (10)`),
			texts: []string{`BEGIN`, `INSERT INTO t VALUES (9)`, `SELECT * FROM nope`},
			kinds: []string{"other", "dml", "select"}, fails: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.inTxn {
				if _, err := s.Exec(`BEGIN`); err != nil {
					t.Fatal(err)
				}
			}
			logged := len(db.QueryLog())
			kindCounts := map[string]int64{}
			for k, hist := range byKind {
				kindCounts[k] = hist.Snapshot().Count
			}
			parsePlan, execStage := h.StageParsePlan.Snapshot(), h.StageExec.Snapshot()
			hits, misses := m.PlanCacheHits.Load(), m.PlanCacheMisses.Load()

			if err := c.run(); (err != nil) != c.fails {
				t.Fatalf("err = %v, want failure %v", err, c.fails)
			}

			var texts []string
			for _, e := range db.QueryLog()[logged:] {
				texts = append(texts, e.Statement)
			}
			if !slices.Equal(texts, c.texts) {
				t.Errorf("query_log rows = %q, want %q", texts, c.texts)
			}
			wantKinds := map[string]int64{}
			for _, k := range c.kinds {
				wantKinds[k]++
			}
			for k, hist := range byKind {
				if got := hist.Snapshot().Count - kindCounts[k]; got != wantKinds[k] {
					t.Errorf("%s latency samples = %d, want %d", k, got, wantKinds[k])
				}
			}
			n := int64(len(c.texts))
			if got := h.StageParsePlan.Snapshot().Count - parsePlan.Count; got != n {
				t.Errorf("parse_plan samples = %d, want %d", got, n)
			}
			if got := h.StageExec.Snapshot().Count - execStage.Count; got != n {
				t.Errorf("exec samples = %d, want %d", got, n)
			}
			if got := m.PlanCacheHits.Load() - hits; got != c.hits {
				t.Errorf("plan cache hits = %d, want %d", got, c.hits)
			}
			if got := m.PlanCacheMisses.Load() - misses; got != c.misses {
				t.Errorf("plan cache misses = %d, want %d", got, c.misses)
			}
			if got := h.StageParsePlan.Snapshot().Sum - parsePlan.Sum; c.noFrontEnd && got != 0 {
				t.Errorf("cache hit recorded %d ns of parse+plan", got)
			}
			if c.fails && s.InTransaction() {
				t.Error("the open transaction survived the error")
			}
		})
	}
}
