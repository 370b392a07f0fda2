package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdadb/internal/exec"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// newBigBatch fills a (k BIGINT, v DOUBLE) batch with k = i % 7, v = i.
func newBigBatch(schema types.Schema, n int) *types.Batch {
	b := types.NewBatch(schema)
	for i := 0; i < n; i++ {
		b.Cols[0].AppendInt(int64(i % 7))
		b.Cols[1].AppendFloat(float64(i))
	}
	return b
}

// explainAnalyzeLines runs EXPLAIN ANALYZE and returns the plan lines.
func explainAnalyzeLines(t *testing.T, db *DB, stmt string) []string {
	t.Helper()
	r, err := db.Exec("EXPLAIN ANALYZE " + stmt)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %s: %v", stmt, err)
	}
	lines := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		lines = append(lines, row[0].S)
	}
	return lines
}

func TestExplainAnalyzeJoinAgg(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE orders (id BIGINT, cust BIGINT, amount DOUBLE)`)
	db.MustExec(`CREATE TABLE custs (cid BIGINT, region VARCHAR)`)
	db.MustExec(`INSERT INTO custs VALUES (1, 'eu'), (2, 'us'), (3, 'eu')`)
	for i := 0; i < 30; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, %d.5)`, i, i%3+1, i))
	}
	lines := explainAnalyzeLines(t, db,
		`SELECT region, SUM(amount) FROM orders JOIN custs ON cust = cid GROUP BY region ORDER BY region`)
	text := strings.Join(lines, "\n")
	for _, want := range []string{"Join", "Aggregate", "Sort", "Scan orders", "Scan custs",
		"rows=30", "rows=2", "Execution time:", "Rows: 2", "Peak memory:", "Workers: 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	// Every executed operator line carries actuals.
	if !strings.Contains(lines[0], "time=") || !strings.Contains(lines[0], "bytes=") {
		t.Errorf("root line lacks actuals: %s", lines[0])
	}
}

func TestExplainAnalyzeIterateShowsIterations(t *testing.T) {
	db := Open(WithWorkers(2))
	lines := explainAnalyzeLines(t, db, `SELECT count(*) FROM ITERATE (
		(SELECT 1 "x", 0 "iter"),
		(SELECT x + 1, iter + 1 FROM iterate),
		(SELECT x FROM iterate WHERE iter >= 3 LIMIT 1))`)
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "Iterate") {
		t.Fatalf("no Iterate operator:\n%s", text)
	}
	iters := strings.Count(text, "[iter ")
	if iters < 3 {
		t.Errorf("want >= 3 per-iteration lines, got %d:\n%s", iters, text)
	}
}

func TestExplainAnalyzePageRankShowsDeltas(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE edges (src BIGINT, dest BIGINT)`)
	db.MustExec(`INSERT INTO edges VALUES (0,1),(1,2),(2,0),(2,1),(0,2)`)
	lines := explainAnalyzeLines(t, db,
		`SELECT * FROM PAGERANK ((SELECT src, dest FROM edges), 0.85, 0, 5)`)
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "PageRank") {
		t.Fatalf("no PageRank operator:\n%s", text)
	}
	if got := strings.Count(text, "[iter "); got < 2 {
		t.Errorf("want per-iteration lines, got %d:\n%s", got, text)
	}
	if !strings.Contains(text, "delta=") {
		t.Errorf("iteration lines lack deltas:\n%s", text)
	}
}

func TestExplainAnalyzeInsertSelectAndDML(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`CREATE TABLE copy_nums (n BIGINT)`)
	lines := explainAnalyzeLines(t, db, `INSERT INTO copy_nums SELECT n FROM nums`)
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "Insert into copy_nums") || !strings.Contains(text, "rows=5") {
		t.Errorf("INSERT...SELECT analyze output:\n%s", text)
	}
	// The INSERT really executed.
	if got := queryInts(t, db, `SELECT count(*) FROM copy_nums`); got[0] != 5 {
		t.Errorf("copy_nums rows = %d", got[0])
	}
	lines = explainAnalyzeLines(t, db, `DELETE FROM copy_nums WHERE n > 3`)
	text = strings.Join(lines, "\n")
	if !strings.Contains(text, "Delete from copy_nums") || !strings.Contains(text, "Rows: 2") {
		t.Errorf("DELETE analyze output:\n%s", text)
	}
}

func TestPlainExplainDML(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`EXPLAIN UPDATE nums SET f = f + 1 WHERE n > 2`)
	if err != nil {
		t.Fatal(err)
	}
	text := ""
	for _, row := range r.Rows {
		text += row[0].S + "\n"
	}
	for _, want := range []string{"Update nums", "Filter", "Scan nums"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN UPDATE missing %q:\n%s", want, text)
		}
	}
	// Plain EXPLAIN must not execute.
	if got := queryOneFloat(t, db, `SELECT f FROM nums WHERE n = 3`); got != 3.5 {
		t.Errorf("EXPLAIN UPDATE executed the update: f = %v", got)
	}
}

// TestStatsAccuracySerialVsParallel pushes known row counts through
// join/sort/agg and demands identical per-operator RowsOut between a
// serial and an 8-worker run.
func TestStatsAccuracySerialVsParallel(t *testing.T) {
	const n = 40_000
	load := func(workers int) *DB {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE big (k BIGINT, v DOUBLE)`)
		db.MustExec(`CREATE TABLE dims (k BIGINT, name VARCHAR)`)
		db.MustExec(`INSERT INTO dims VALUES (0,'a'),(1,'b'),(2,'c'),(3,'d'),(4,'e'),(5,'f'),(6,'g')`)
		store := db.Store()
		tbl, err := store.Table("big")
		if err != nil {
			t.Fatal(err)
		}
		tx := store.Begin()
		b := newBigBatch(tbl.Schema(), n)
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const q = `SELECT name, count(*), sum(v) FROM big JOIN dims ON big.k = dims.k
		WHERE v < 20000 GROUP BY name ORDER BY name`
	trees := map[int]*exec.OpStats{}
	for _, workers := range []int{1, 8} {
		db := load(workers)
		s := db.NewSession()
		s.CollectStats(true)
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
		trees[workers] = s.LastStats()
		s.Close()
	}
	var flatten func(n *exec.OpStats, out map[string]int64)
	flatten = func(n *exec.OpStats, out map[string]int64) {
		out[n.Name] += n.RowsOut
		for _, c := range n.Children {
			flatten(c, out)
		}
	}
	serial, parallel := map[string]int64{}, map[string]int64{}
	flatten(trees[1], serial)
	flatten(trees[8], parallel)
	if len(serial) == 0 {
		t.Fatal("no stats recorded")
	}
	for name, rows := range serial {
		if parallel[name] != rows {
			t.Errorf("operator %q: serial rows=%d parallel rows=%d", name, rows, parallel[name])
		}
	}
	// Spot-check the known counts: the filtered scan side feeds 20000 rows,
	// the aggregate emits 7 groups.
	found := false
	for name, rows := range serial {
		if strings.HasPrefix(name, "Aggregate") {
			found = true
			if rows != 7 {
				t.Errorf("aggregate rows = %d, want 7", rows)
			}
		}
	}
	if !found {
		t.Error("no Aggregate operator in stats tree")
	}
}

func TestQueryLogStatuses(t *testing.T) {
	defer faultinject.Reset()
	db := newTestDB(t)

	// ok
	db.MustExec(`SELECT n FROM nums`)
	// error
	if _, err := db.Exec(`SELECT * FROM no_such_table`); err == nil {
		t.Fatal("want error")
	}
	// cancelled: pull the plug mid-iteration.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	faultinject.Set("exec.iterate.round", func() error {
		once.Do(cancel)
		return nil
	})
	if _, err := db.ExecContext(ctx, slowIterate); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	faultinject.Reset()

	// timeout
	tdb := Open(WithStatementTimeout(20*time.Millisecond), WithIterationLimit(1_000_000_000))
	faultinject.Set("exec.iterate.round", func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if _, err := tdb.Exec(slowIterate); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	faultinject.Reset()

	statusOf := func(entries []telemetry.QueryLogEntry, stmt string) string {
		for i := len(entries) - 1; i >= 0; i-- {
			if entries[i].Statement == stmt {
				return entries[i].Status
			}
		}
		return "<missing>"
	}
	log := db.QueryLog()
	if got := statusOf(log, `SELECT n FROM nums`); got != telemetry.StatusOK {
		t.Errorf("ok statement status = %q", got)
	}
	if got := statusOf(log, `SELECT * FROM no_such_table`); got != telemetry.StatusError {
		t.Errorf("error statement status = %q", got)
	}
	if got := statusOf(log, strings.TrimSpace(slowIterate)); got != telemetry.StatusCancelled {
		t.Errorf("cancelled statement status = %q", got)
	}
	if got := statusOf(tdb.QueryLog(), strings.TrimSpace(slowIterate)); got != telemetry.StatusTimeout {
		t.Errorf("timed-out statement status = %q", got)
	}

	// The same statuses are visible through SQL.
	r, err := tdb.Query(`SELECT statement, status FROM system.query_log WHERE status = 'timeout'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("timeout rows in system.query_log = %d", len(r.Rows))
	}
}

func TestQueryLogMatchesStatement(t *testing.T) {
	db := newTestDB(t)
	before := time.Now()
	r, err := db.Query(`SELECT n FROM nums WHERE n > 2`)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := db.Query(`SELECT statement, duration_ms, rows, status FROM system.query_log
		WHERE statement = 'SELECT n FROM nums WHERE n > 2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rq.Rows) != 1 {
		t.Fatalf("query_log rows = %d", len(rq.Rows))
	}
	row := rq.Rows[0]
	if row[2].AsInt() != int64(len(r.Rows)) {
		t.Errorf("logged rows = %d, want %d", row[2].AsInt(), len(r.Rows))
	}
	if row[3].S != telemetry.StatusOK {
		t.Errorf("status = %q", row[3].S)
	}
	maxMS := float64(time.Since(before).Nanoseconds()) / 1e6
	if ms := row[1].AsFloat(); ms <= 0 || ms > maxMS {
		t.Errorf("duration_ms = %v (elapsed bound %v)", ms, maxMS)
	}
}

func TestSystemMetricsCounters(t *testing.T) {
	db := newTestDB(t)
	db.MustExec(`SELECT n FROM nums`)
	_, _ = db.Exec(`SELECT * FROM missing`)
	r, err := db.Query(`SELECT name, value FROM system.metrics`)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, row := range r.Rows {
		vals[row[0].S] = row[1].AsInt()
	}
	if vals["statements_total"] < 3 {
		t.Errorf("statements_total = %d", vals["statements_total"])
	}
	if vals["statements_error"] < 1 {
		t.Errorf("statements_error = %d", vals["statements_error"])
	}
	if vals["rows_returned"] < 5 {
		t.Errorf("rows_returned = %d", vals["rows_returned"])
	}
}

// TestStatementLatencyByKind: sql.Classify's Kind strings are the by-kind
// histogram labels, so each statement lands in its own histogram — ad hoc,
// plan-cache hit and prepared alike — and anything else in "other".
func TestStatementLatencyByKind(t *testing.T) {
	db := Open()
	s := db.NewSession()
	defer s.Close()
	for _, text := range []string{
		`CREATE TABLE t (id BIGINT)`,               // ddl
		`INSERT INTO t VALUES (1)`,                 // dml
		`SELECT id FROM t`,                         // select (plan-cache miss)
		`SELECT id FROM t`,                         // select (plan-cache hit)
		`PREPARE ins AS INSERT INTO t VALUES ($1)`, // other
		`BEGIN`,            // other (txn)
		`COMMIT`,           // other (txn)
		`EXPLAIN SELECT 1`, // other
	} {
		if _, err := s.Exec(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	if _, err := s.ExecutePrepared(context.Background(), "ins", []types.Value{types.NewInt(2)}); err != nil { // dml
		t.Fatal(err)
	}
	h := db.Metrics().Hist()
	for name, c := range map[string]struct {
		hist *telemetry.Histogram
		want int64
	}{
		"select": {&h.StmtSelect, 2}, "dml": {&h.StmtDML, 2}, "ddl": {&h.StmtDDL, 1}, "other": {&h.StmtOther, 4},
	} {
		if got := c.hist.Snapshot().Count; got != c.want {
			t.Errorf("%s statements recorded = %d, want %d", name, got, c.want)
		}
	}
}

// TestSystemMetricsConcurrentReads hammers system.metrics reads while
// queries run on other goroutines; run under -race this verifies the
// lock-free counters and the virtual-table snapshotting.
func TestSystemMetricsConcurrentReads(t *testing.T) {
	db := newTestDB(t)
	const readers, writers, rounds = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Query(`SELECT sum(f) FROM nums WHERE n > 1`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Query(`SELECT name, value FROM system.metrics`); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Query(`SELECT count(*) FROM system.query_log`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.Metrics().StatementsOK.Load(); got < writers*rounds {
		t.Errorf("statements_ok = %d, want >= %d", got, writers*rounds)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	db := Open(WithWorkers(2), WithSlowQueryThreshold(time.Nanosecond, &buf))
	db.MustExec(`CREATE TABLE t (x BIGINT)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	db.MustExec(`SELECT count(*) FROM t WHERE x > 1`)

	var sawStats bool
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("slow log lines = %d", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			Statement  string        `json:"statement"`
			DurationMS float64       `json:"duration_ms"`
			Status     string        `json:"status"`
			Stats      *exec.OpStats `json:"stats"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		if rec.Status != telemetry.StatusOK || rec.DurationMS <= 0 {
			t.Errorf("slow-log record = %+v", rec)
		}
		if rec.Stats != nil && strings.HasPrefix(rec.Statement, "SELECT") {
			sawStats = true
			if rec.Stats.TotalRows() == 0 && len(rec.Stats.Children) == 0 {
				t.Errorf("empty stats tree for %q", rec.Statement)
			}
		}
	}
	if !sawStats {
		t.Error("no slow-log record carried a stats tree")
	}
	if got := db.Metrics().SlowQueries.Load(); got < 3 {
		t.Errorf("slow_queries = %d", got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log sinks in tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
