package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdadb/internal/exec"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/morsel"
	"lambdadb/internal/types"
)

// slowIterate never reaches its stop condition before the default depth
// bound; each round is trivial, so it spins for as long as the lifecycle
// controls allow.
const slowIterate = `SELECT * FROM ITERATE (
	(SELECT 1 "x"),
	(SELECT x + 1 FROM iterate),
	(SELECT x FROM iterate WHERE x < 0))`

func TestExecContextCancelled(t *testing.T) {
	db := newTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, `SELECT n FROM nums`); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The DB stays usable after a cancelled statement.
	if got := queryInts(t, db, `SELECT count(*) FROM nums`); len(got) != 1 || got[0] != 5 {
		t.Fatalf("post-cancel query = %v", got)
	}
}

func TestExecContextCancelMidIteration(t *testing.T) {
	defer faultinject.Reset()
	db := Open(WithIterationLimit(1_000_000))
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	rounds := 0
	faultinject.Set("exec.iterate.round", func() error {
		rounds++
		if rounds >= 10 {
			once.Do(cancel)
		}
		return nil
	})
	_, err := db.ExecContext(ctx, slowIterate)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	faultinject.Reset()
	// Working-table bindings are released: later queries — including a
	// fresh ITERATE reusing the binding name — run normally.
	r, qerr := db.Exec(`SELECT * FROM ITERATE (
		(SELECT 1 "x"),
		(SELECT x + 1 FROM iterate),
		(SELECT x FROM iterate WHERE x >= 3))`)
	if qerr != nil {
		t.Fatalf("ITERATE after cancellation: %v", qerr)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].I != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestStatementTimeout(t *testing.T) {
	defer faultinject.Reset()
	db := Open(WithStatementTimeout(30*time.Millisecond), WithIterationLimit(1_000_000_000))
	// Slow each round down so the loop outlives the timeout by pacing, not
	// by CPU-bound luck.
	faultinject.Set("exec.iterate.round", func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	start := time.Now()
	_, err := db.Exec(slowIterate)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v to take effect", elapsed)
	}
	faultinject.Reset()
	// The timeout is per statement, not per DB: quick statements still run.
	if got := queryInts(t, db, `SELECT 1 "x"`); len(got) != 1 || got[0] != 1 {
		t.Fatalf("post-timeout query = %v", got)
	}
}

func TestIterationLimitIterate(t *testing.T) {
	db := Open(WithIterationLimit(25))
	_, err := db.Exec(slowIterate)
	if err == nil || !strings.Contains(err.Error(), "exceeded 25 iterations") {
		t.Fatalf("want iteration-limit error, got %v", err)
	}
}

func TestIterationLimitRecursiveCTE(t *testing.T) {
	db := Open(WithIterationLimit(25))
	_, err := db.Exec(`WITH RECURSIVE r ("x") AS (
		SELECT 1 UNION ALL SELECT x + 1 FROM r)
		SELECT count(*) FROM r`)
	if err == nil || !strings.Contains(err.Error(), "exceeded 25 iterations") {
		t.Fatalf("want iteration-limit error, got %v", err)
	}
	// The limit names the CTE.
	if !strings.Contains(err.Error(), "recursive CTE r") {
		t.Fatalf("error does not name the CTE: %v", err)
	}
}

func TestMemoryLimitSQL(t *testing.T) {
	db := Open(WithMemoryLimit(16 << 10))
	db.MustExec(`CREATE TABLE big (n BIGINT, v DOUBLE)`)
	// ~12k rows * 16 B well past the 16 KB budget; insert in chunks via a
	// recursive generator-free path: plain INSERTs.
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES (0, 0.0)`)
	for i := 1; i < 512; i++ {
		sb.WriteString(`, (`)
		sb.WriteString(itoa(i))
		sb.WriteString(`, 1.0)`)
	}
	for i := 0; i < 24; i++ {
		db.MustExec(sb.String())
	}
	_, err := db.Query(`SELECT n FROM big ORDER BY n DESC`)
	var re *exec.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *exec.ResourceError, got %v", err)
	}
	if re.Operator == "" {
		t.Fatalf("ResourceError does not name an operator: %+v", re)
	}
	// DML and small queries still work under the same budget.
	if got := queryInts(t, db, `SELECT count(*) FROM big`); len(got) != 1 || got[0] != 512*24 {
		t.Fatalf("post-breach count = %v", got)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestInjectedPanicBecomesInternalError(t *testing.T) {
	defer faultinject.Reset()
	db := newTestDB(t)
	faultinject.Set("exec.scan.batch", func() error { panic("engine-level injected panic") })
	_, err := db.Query(`SELECT n FROM nums`)
	var ie *morsel.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *morsel.InternalError, got %v", err)
	}
	faultinject.Reset()
	if got := queryInts(t, db, `SELECT count(*) FROM nums`); len(got) != 1 || got[0] != 5 {
		t.Fatalf("post-panic query = %v", got)
	}
}

func TestSessionExecContextSkipsRemainingStatements(t *testing.T) {
	defer faultinject.Reset()
	db := newTestDB(t)
	s := db.NewSession()
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	faultinject.Set("exec.scan.batch", func() error { cancel(); return nil })
	// The second statement must never run: the INSERT would be visible.
	_, err := s.ExecContext(ctx, `SELECT n FROM nums; INSERT INTO nums VALUES (99, 9.9, 'z')`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	faultinject.Reset()
	if got := queryInts(t, db, `SELECT count(*) FROM nums WHERE n = 99`); got[0] != 0 {
		t.Fatal("statement after the cancelled one still ran")
	}
}

// loadWide fills table wide (n BIGINT, v DOUBLE) with batches*512 rows of
// (i, 1.0) through plain INSERT ... VALUES, which no timeout governs.
func loadWide(db *DB, batches int) {
	db.MustExec(`CREATE TABLE wide (n BIGINT, v DOUBLE)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO wide VALUES (0, 1.0)`)
	for i := 1; i < 512; i++ {
		sb.WriteString(`, (` + itoa(i) + `, 1.0)`)
	}
	for i := 0; i < batches; i++ {
		db.MustExec(sb.String())
	}
}

// TestStatementTimeoutStopsUpdate: UPDATE is governed like SELECT. The scan
// outlives a 1 ms budget by two orders of magnitude, so the deadline is seen
// at a batch boundary, the autocommit transaction rolls back, and the query
// log records a timeout.
func TestStatementTimeoutStopsUpdate(t *testing.T) {
	db := Open(WithStatementTimeout(time.Millisecond))
	loadWide(db, 200)
	const upd = `UPDATE wide SET v = v + 1.0 WHERE n >= 0`
	if _, err := db.Exec(upd); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	db.stmtTimeout = 0 // let the verification scans run to completion
	logged := `SELECT count(*) FROM system.query_log WHERE status = 'timeout' AND statement = '` + upd + `'`
	if got := queryInts(t, db, logged); got[0] != 1 {
		t.Errorf("system.query_log holds %d timeout rows for the UPDATE, want 1", got[0])
	}
	if got := queryInts(t, db, `SELECT count(*) FROM wide WHERE v <> 1.0`); got[0] != 0 {
		t.Fatalf("timed-out UPDATE changed %d rows", got[0])
	}
}

// goneAfter reports Canceled from its nth Err call on: a client that
// disconnects while the statement is mid-scan, without a timing race.
type goneAfter struct {
	context.Context
	calls, n int
}

func (c *goneAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func TestCancelledDeleteAbortsExplicitTransaction(t *testing.T) {
	db := Open()
	loadWide(db, 8)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	// Call 1 is ExecContext's own pre-statement check; calls 2.. are the
	// scan's per-batch checks, so the DELETE has buffered work when it stops.
	_, err := s.ExecContext(&goneAfter{Context: context.Background(), n: 4}, `DELETE FROM wide WHERE n >= 0`)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "(open transaction rolled back)") {
		t.Fatalf("want context.Canceled with the rollback note, got %v", err)
	}
	if s.InTransaction() {
		t.Fatal("the explicit transaction survived a cancelled statement")
	}
	if got := queryInts(t, db, `SELECT count(*) FROM wide`); got[0] != 8*512 {
		t.Fatalf("cancelled DELETE removed rows: %d left", got[0])
	}
}

// loadEdges bulk-loads edges (src BIGINT, dst BIGINT) with n rows over
// 50k vertices, past the executor's morsel-split threshold.
func loadEdges(t *testing.T, db *DB, n int) {
	t.Helper()
	db.MustExec(`CREATE TABLE edges (src BIGINT, dst BIGINT)`)
	tbl, err := db.Store().Table("edges")
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBatch(tbl.Schema())
	for i := 0; i < n; i++ {
		b.Cols[0].AppendInt(int64(i % 50_000))
		b.Cols[1].AppendInt(int64((i*7 + 1) % 50_000))
	}
	tx := db.Store().Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticsOperatorsObeyStatementTimeout: the layer-4 operators are
// governed like every other operator. PageRank's rounds pass the same
// per-round check as ITERATE's, and model application checks per input
// batch, so neither outlives the statement timeout by more than one round or
// one batch: 100,000 PageRank rounds, or a 2048-center assignment of 200k
// tuples (seconds of work either way), stop at the 30 ms deadline, are
// logged as timeouts, and leave the session usable.
func TestAnalyticsOperatorsObeyStatementTimeout(t *testing.T) {
	db := Open(WithWorkers(2))
	loadEdges(t, db, 200_000)
	for name, q := range map[string]string{
		"pagerank": `SELECT count(*) FROM pagerank((SELECT src, dst FROM edges), 0.85, 0.0, 100000)`,
		"kmeans_assign": `SELECT count(*) FROM kmeans_assign((SELECT src, dst FROM edges), ` +
			`(SELECT src, dst FROM edges WHERE src < 512))`,
	} {
		db.stmtTimeout = 30 * time.Millisecond
		start := time.Now()
		_, err := db.Exec(q)
		elapsed := time.Since(start)
		db.stmtTimeout = 0
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want context.DeadlineExceeded, got %v after %v", name, err, elapsed)
		}
		if elapsed > time.Second {
			t.Errorf("%s: the timeout took %v to take effect", name, elapsed)
		}
		logged := `SELECT count(*) FROM system.query_log WHERE status = 'timeout' AND statement = '` + q + `'`
		if got := queryInts(t, db, logged); got[0] != 1 {
			t.Errorf("%s: system.query_log holds %d timeout rows, want 1", name, got[0])
		}
		if got := queryInts(t, db, `SELECT count(*) FROM edges`); got[0] != 200_000 {
			t.Fatalf("%s: query after the timeout = %v", name, got)
		}
	}
}
