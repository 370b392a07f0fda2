// Package engine is the public face of the database: it wires the SQL
// front end, planner, executor, and storage into a single main-memory
// engine with autocommit and explicit transactions.
package engine

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lambdadb/internal/exec"
	"lambdadb/internal/load"
	"lambdadb/internal/persist"
	"lambdadb/internal/plan"
	"lambdadb/internal/plancache"
	"lambdadb/internal/sql"
	"lambdadb/internal/storage"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
	"lambdadb/internal/wal"
)

// DB is a main-memory database instance.
type DB struct {
	store       *storage.Store
	workers     int
	memLimit    int64
	stmtTimeout time.Duration
	iterLimit   int

	queryLog      *telemetry.QueryLog
	metrics       *telemetry.Metrics
	stats         statsRegistry
	planCache     *plancache.Cache
	planCacheSize int
	logger        *slog.Logger
	slowThreshold time.Duration
	slowSink      io.Writer
	slowMu        sync.Mutex // serializes slow-log writes

	// Durability state, set by OpenDir; all nil/zero for an in-memory DB.
	wal             *wal.Manager
	checkpointEvery time.Duration
	checkpointStop  chan struct{}
	checkpointDone  chan struct{}
	closeOnce       sync.Once

	// Replication state (see replica.go): replicaOf is the initial role
	// from WithReadReplica; the live role (which failover changes at
	// runtime) lives in role. replReporter feeds system.replication and
	// clusterCtl handles PROMOTE/FOLLOW.
	replicaOf    string
	role         atomic.Pointer[roleState]
	replReporter ReplicationReporter
	clusterCtl   ClusterControl
}

// Option configures a DB.
type Option func(*DB)

// WithWorkers sets the parallelism degree for query execution.
func WithWorkers(n int) Option {
	return func(db *DB) {
		if n > 0 {
			db.workers = n
		}
	}
}

// WithMemoryLimit caps the bytes one query may hold in materializations
// (hash-join builds, sort inputs, working tables, buffered results). A query
// over the budget fails with a typed *exec.ResourceError naming the
// operator that tripped it, instead of driving the process out of memory.
// bytes <= 0 (the default) means unlimited.
func WithMemoryLimit(bytes int64) Option {
	return func(db *DB) { db.memLimit = bytes }
}

// WithStatementTimeout bounds the wall-clock time of each statement. An
// expired statement fails with a wrapped context.DeadlineExceeded within
// one morsel's work. d <= 0 (the default) means no timeout.
func WithStatementTimeout(d time.Duration) Option {
	return func(db *DB) { db.stmtTimeout = d }
}

// WithIterationLimit bounds ITERATE / recursive-CTE rounds per query
// (runaway-loop protection); n <= 0 keeps the planner default.
func WithIterationLimit(n int) Option {
	return func(db *DB) { db.iterLimit = n }
}

// WithPlanCacheSize caps the shared LRU plan cache at n entries; n = 0
// disables plan caching entirely (every statement is planned from scratch).
// The default is plancache.DefaultSize.
func WithPlanCacheSize(n int) Option {
	return func(db *DB) {
		if n >= 0 {
			db.planCacheSize = n
		}
	}
}

// WithSlowQueryThreshold appends every statement that runs for at least d
// to sink as one JSON line including its compact per-operator stats tree.
// Setting a threshold arms statement telemetry for all statements (a few
// percent overhead); d <= 0 or a nil sink disables the log.
func WithSlowQueryThreshold(d time.Duration, sink io.Writer) Option {
	return func(db *DB) {
		if d > 0 && sink != nil {
			db.slowThreshold = d
			db.slowSink = sink
		}
	}
}

// WithLogger routes the engine's background logs (checkpointer errors, WAL
// recovery summaries) through a structured logger instead of stderr text.
func WithLogger(l *slog.Logger) Option {
	return func(db *DB) {
		if l != nil {
			db.logger = l
		}
	}
}

// WithCheckpointInterval makes a durable DB (OpenDir) checkpoint itself in
// the background every d: a snapshot image is written and the redo log
// truncated behind it, bounding recovery time. d <= 0 (the default) leaves
// checkpointing manual (the CHECKPOINT statement). Ignored by Open.
func WithCheckpointInterval(d time.Duration) Option {
	return func(db *DB) { db.checkpointEvery = d }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	db := &DB{
		store:         storage.NewStore(),
		workers:       runtime.GOMAXPROCS(0),
		queryLog:      telemetry.NewQueryLog(0),
		metrics:       &telemetry.Metrics{},
		stats:         statsRegistry{m: map[string]*plan.TableStats{}},
		planCacheSize: plancache.DefaultSize,
		// Default logging matches the engine's historical stderr behavior:
		// background failures surface, routine lifecycle (recovery summaries)
		// stays quiet until WithLogger installs an operator-facing logger.
		logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	for _, o := range opts {
		o(db)
	}
	db.role.Store(&roleState{writable: db.replicaOf == "", primary: db.replicaOf})
	db.planCache = plancache.New(db.planCacheSize)
	return db
}

// Metrics exposes the engine-wide cumulative counters (also queryable as
// the virtual table system.metrics).
func (db *DB) Metrics() *telemetry.Metrics { return db.metrics }

// QueryLog returns the recent-statement log, oldest first (also queryable
// as the virtual table system.query_log).
func (db *DB) QueryLog() []telemetry.QueryLogEntry { return db.queryLog.Snapshot() }

// Store exposes the underlying storage (tools and benchmarks use it for
// bulk loading).
func (db *DB) Store() *storage.Store { return db.store }

// WALManager exposes the durability manager of a DB opened with OpenDir
// (nil otherwise). The replication layer ships from and mirrors into it.
func (db *DB) WALManager() *wal.Manager { return db.wal }

// Save writes a snapshot image of the database to path.
func (db *DB) Save(path string) error { return persist.SaveFile(db.store, path) }

// OpenFile opens a database restored from a snapshot image.
func OpenFile(path string, opts ...Option) (*DB, error) {
	store, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	db := Open(opts...)
	db.store = store
	return db, nil
}

// OpenDir opens a durable database backed by a data directory: the latest
// checkpoint image is loaded, the write-ahead log replayed (recovering
// from a crash if there was one), and from then on every commit is made
// durable — acknowledged only after its redo record is fsynced, with
// concurrent commits sharing one sync (group commit). The directory is
// created if missing. Call Close before exiting to flush the log; after a
// crash the next OpenDir recovers instead.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	db := Open(opts...)
	store, mgr, err := wal.Open(dir, wal.Options{Metrics: db.metrics, Logger: db.logger})
	if err != nil {
		return nil, err
	}
	db.store = store
	db.wal = mgr
	if db.checkpointEvery > 0 {
		db.checkpointStop = make(chan struct{})
		db.checkpointDone = make(chan struct{})
		go db.checkpointLoop()
	}
	return db, nil
}

// checkpointLoop checkpoints every checkpointEvery until Close.
func (db *DB) checkpointLoop() {
	defer close(db.checkpointDone)
	t := time.NewTicker(db.checkpointEvery)
	defer t.Stop()
	for {
		select {
		case <-db.checkpointStop:
			return
		case <-t.C:
			if _, err := db.Checkpoint(); err != nil {
				db.logger.Warn("background checkpoint failed", "err", err.Error())
			}
		}
	}
}

// Checkpoint writes a durable snapshot image and truncates the redo log
// behind it, then refreshes the statistics of every analyzed table. It
// fails on an in-memory DB (no data directory).
func (db *DB) Checkpoint() (wal.CheckpointStats, error) {
	if db.wal == nil {
		return wal.CheckpointStats{}, fmt.Errorf("CHECKPOINT requires a database opened with a data directory")
	}
	if r := db.role.Load(); !r.writable {
		// The replica's log mirrors the primary's; rotating it locally would
		// break the mirror. Replica checkpoints happen at stream boundaries.
		return wal.CheckpointStats{}, &ReadOnlyError{Primary: r.primary, Statement: "CHECKPOINT"}
	}
	stats, err := db.wal.Checkpoint()
	if err == nil {
		db.refreshStats()
	}
	return stats, err
}

// RecoverySummary reports what startup recovery found and did, and whether
// this DB is durable at all (false for Open/OpenFile databases).
func (db *DB) RecoverySummary() (wal.RecoverySummary, bool) {
	if db.wal == nil {
		return wal.RecoverySummary{}, false
	}
	return db.wal.Summary(), true
}

// Close flushes and closes the write-ahead log (and stops the background
// checkpointer), so a clean shutdown loses nothing and needs no replay on
// the next start. It does not checkpoint — restart replays the log tail.
// Close is a no-op on an in-memory DB and safe to call more than once;
// commits attempted after Close fail.
func (db *DB) Close() error {
	var err error
	db.closeOnce.Do(func() {
		if db.checkpointStop != nil {
			close(db.checkpointStop)
			<-db.checkpointDone
		}
		if db.wal != nil {
			err = db.wal.Close()
		}
	})
	return err
}

// Workers returns the configured parallelism degree.
func (db *DB) Workers() int { return db.workers }

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (empty for DML).
	Columns []string
	// Types holds the result column types, aligned with Columns. It may be
	// empty for results not derived from a plan (e.g. EXPLAIN text);
	// consumers that need types should fall back to inspecting row values.
	Types []types.Type
	// Rows holds the result rows (nil for DML).
	Rows [][]types.Value
	// Affected counts rows touched by DML.
	Affected int
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("(%d rows affected)", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(r.Rows))
	return sb.String()
}

// Exec parses and executes one or more semicolon-separated statements in
// autocommit mode, returning the last statement's result.
func (db *DB) Exec(text string) (*Result, error) {
	return db.ExecContext(context.Background(), text)
}

// ExecContext is Exec governed by ctx: cancelling it (or its deadline
// expiring) aborts the running statement within one morsel's work with a
// wrapped context.Canceled / context.DeadlineExceeded, leaving the DB
// usable for subsequent queries.
func (db *DB) ExecContext(ctx context.Context, text string) (*Result, error) {
	s := db.NewSession()
	defer s.Close()
	return s.ExecContext(ctx, text)
}

// Query is Exec restricted to a single SELECT.
func (db *DB) Query(text string) (*Result, error) {
	return db.QueryContext(context.Background(), text)
}

// QueryContext is Query governed by ctx (see ExecContext).
func (db *DB) QueryContext(ctx context.Context, text string) (*Result, error) {
	s := db.NewSession()
	defer s.Close()
	return s.exec(ctx, text, true)
}

// MustExec is Exec that panics on error (tests, examples).
func (db *DB) MustExec(text string) *Result {
	r, err := db.Exec(text)
	if err != nil {
		panic(fmt.Sprintf("MustExec(%q): %v", text, err))
	}
	return r
}

// Session is a connection-like handle holding transaction state.
// Statements outside BEGIN...COMMIT autocommit. Within an explicit
// transaction, reads see the snapshot taken at BEGIN; buffered writes
// become visible at COMMIT (no read-your-own-writes).
//
// A failed statement aborts any open explicit transaction (it is rolled
// back immediately, PostgreSQL-style, and the returned error says so), so
// a script can never continue half-way through a transaction that silently
// lost a statement.
//
// A Session executes one statement at a time, but Close is safe to call
// concurrently with an in-flight ExecContext — the network server closes
// sessions when clients drop mid-statement. After Close, statements fail
// with a "session is closed" error.
type Session struct {
	db *DB

	mu     sync.Mutex // guards txn and closed
	txn    *storage.Txn
	closed bool

	collect   bool          // arm per-operator stats for every statement
	lastStats *exec.OpStats // stats tree of the last statement (copied from its stmt)
	lastPeak  int64         // peak accounted bytes of the last statement

	// prepared holds this session's PREPAREd statements by name.
	prepared map[string]*preparedStmt
}

// CollectStats arms (or disarms) per-operator statistics collection for
// every subsequent statement in this session; LastStats returns the tree.
func (s *Session) CollectStats(on bool) { s.collect = on }

// LastStats returns the per-operator stats tree of the most recent
// statement executed with stats armed, or nil.
func (s *Session) LastStats() *exec.OpStats { return s.lastStats }

// LastPeakBytes returns the peak accounted memory of the most recent
// statement executed with stats armed.
func (s *Session) LastPeakBytes() int64 { return s.lastPeak }

// NewSession opens a session.
func (db *DB) NewSession() *Session {
	db.metrics.SessionsActive.Add(1)
	return &Session{db: db}
}

// Close rolls back any open transaction and marks the session unusable.
// It is safe to call concurrently with an in-flight ExecContext and safe to
// call more than once.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.db.metrics.SessionsActive.Add(-1)
	}
	s.closed = true
	if s.txn != nil {
		s.txn.Rollback()
		s.txn = nil
	}
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil
}

var errSessionClosed = fmt.Errorf("session is closed")

// abortOnError enforces the abort-on-error rule: a failed statement rolls
// back any open explicit transaction rather than leaving it silently open.
// The returned error notes the rollback so the caller knows the
// transaction is gone.
func (s *Session) abortOnError(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn == nil {
		return err
	}
	s.txn.Rollback()
	s.txn = nil
	return fmt.Errorf("%w (open transaction rolled back)", err)
}

// Exec executes one or more statements, returning the last result.
func (s *Session) Exec(text string) (*Result, error) {
	return s.ExecContext(context.Background(), text)
}

// ExecContext is Exec governed by ctx; cancellation aborts the statement in
// flight and skips any statements after it. Any error — parse failure,
// statement failure, or cancellation — aborts an open explicit transaction
// (see Session).
func (s *Session) ExecContext(ctx context.Context, text string) (*Result, error) {
	return s.exec(ctx, text, false)
}

// exec is the one statement entry path, behind ExecContext and (selectOnly)
// QueryContext. Text that normalizes to a single SELECT goes to
// execSelectText, which parses it only on a plan-cache miss; anything else
// is parsed once into statements and their texts, and each statement runs
// through execLogged with bookkeeping of its own. Any error aborts an open
// explicit transaction.
func (s *Session) exec(ctx context.Context, text string, selectOnly bool) (*Result, error) {
	res, err := s.execScript(ctx, text, selectOnly)
	if err != nil {
		return nil, s.abortOnError(err)
	}
	return res, nil
}

func (s *Session) execScript(ctx context.Context, text string, selectOnly bool) (*Result, error) {
	if key, ok := sql.NormalizeStatement(text); ok && isSelectPrefix(key) {
		return s.execSelectText(ctx, text, key)
	}
	parseStart := time.Now()
	stmts, texts, err := sql.ParseScript(text)
	if err != nil {
		return nil, err
	}
	if selectOnly && (len(stmts) != 1 || sql.Classify(stmts[0]).Kind != sql.KindSelect) {
		return nil, fmt.Errorf("Query expects a SELECT statement")
	}
	if len(stmts) == 0 {
		return &Result{}, nil
	}
	parseShare := time.Since(parseStart).Nanoseconds() / int64(len(stmts))
	var last *Result
	for i, ast := range stmts {
		if err := s.ready(ctx); err != nil {
			return nil, err
		}
		st := s.newStmt(parseShare)
		if last, err = s.execLogged(ctx, st, texts[i], sql.Classify(ast).Kind, func(ctx context.Context) (*Result, error) {
			return s.execStatement(ctx, st, ast)
		}); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// execSelectText runs text that normalizes to key, a single SELECT. Its
// plan comes from the shared cache when a current one is there, so the text
// is parsed only on a miss; text that does not parse runs nothing, as a
// script that does not parse runs none of its statements.
func (s *Session) execSelectText(ctx context.Context, text, key string) (*Result, error) {
	if err := s.ready(ctx); err != nil {
		return nil, err
	}
	st := s.newStmt(0)
	var parseErr error
	tmpl, err := s.cachedPlan(st, key, 0, func() (*sql.Select, error) {
		parseStart := time.Now()
		ast, err := sql.ParseOne(text)
		st.parseNs = time.Since(parseStart).Nanoseconds()
		if err != nil {
			parseErr = err
			return nil, err
		}
		sel := ast.(*sql.Select) // only a SELECT parses from a SELECT/WITH key
		return sel, noParams(sel)
	})
	if parseErr != nil {
		return nil, parseErr
	}
	return s.execLogged(ctx, st, strings.TrimSpace(text), sql.KindSelect, func(ctx context.Context) (*Result, error) {
		if err != nil {
			return nil, err
		}
		return s.runSelect(ctx, st, tmpl, nil)
	})
}

// ready is checked before each statement: once ctx is done or the session
// is closed, no further statement runs.
func (s *Session) ready(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.isClosed() {
		return errSessionClosed
	}
	return nil
}

// isClosed reports whether Close has been called.
func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Session) execStatement(ctx context.Context, st *stmt, ast sql.Statement) (*Result, error) {
	if err := s.db.rejectOnReplica(ast); err != nil {
		return nil, err
	}
	switch n := ast.(type) {
	case *sql.CreateTable:
		return s.execCreate(n)
	case *sql.DropTable:
		return s.execDrop(n)
	case *sql.Insert:
		return s.execInsert(ctx, st, n)
	case *sql.Update:
		return s.execUpdate(ctx, n)
	case *sql.Delete:
		return s.execDelete(ctx, n)
	case *sql.Select:
		if err := noParams(n); err != nil {
			return nil, err
		}
		tmpl, err := s.buildSelect(st, n)
		if err != nil {
			return nil, err
		}
		return s.runSelect(ctx, st, tmpl, nil)
	case *sql.Begin:
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errSessionClosed
		}
		if s.txn != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("transaction already open")
		}
		s.txn = s.db.store.Begin()
		s.mu.Unlock()
		return &Result{}, nil
	case *sql.Commit:
		s.mu.Lock()
		tx := s.txn
		s.txn = nil
		s.mu.Unlock()
		if tx == nil {
			return nil, fmt.Errorf("no transaction open")
		}
		return &Result{}, tx.Commit()
	case *sql.Rollback:
		s.mu.Lock()
		tx := s.txn
		s.txn = nil
		s.mu.Unlock()
		if tx == nil {
			return nil, fmt.Errorf("no transaction open")
		}
		tx.Rollback()
		return &Result{}, nil
	case *sql.CreateIndex:
		return s.execCreateIndex(n)
	case *sql.DropIndex:
		return s.execDropIndex(n)
	case *sql.Analyze:
		return s.execAnalyze(n)
	case *sql.Copy:
		return s.execCopy(n)
	case *sql.Explain:
		return s.execExplain(ctx, st, n)
	case *sql.Prepare:
		return s.execPrepare(st, n)
	case *sql.Execute:
		return s.execExecute(ctx, st, n)
	case *sql.Deallocate:
		return s.execDeallocate(n)
	case *sql.Checkpoint:
		stats, err := s.db.Checkpoint()
		if err != nil {
			return nil, err
		}
		return &Result{
			Columns: []string{"clock", "segments_removed"},
			Types:   []types.Type{types.Int64, types.Int64},
			Rows: [][]types.Value{{
				types.NewInt(int64(stats.Clock)),
				types.NewInt(int64(stats.SegmentsRemoved)),
			}},
		}, nil
	case *sql.Promote:
		cc := s.db.clusterCtl
		if cc == nil {
			return nil, fmt.Errorf("PROMOTE requires cluster control (a lambdaserver with a data directory)")
		}
		epoch, err := cc.Promote(ctx)
		if err != nil {
			return nil, err
		}
		return &Result{
			Columns: []string{"epoch"},
			Types:   []types.Type{types.Int64},
			Rows:    [][]types.Value{{types.NewInt(int64(epoch))}},
		}, nil
	case *sql.Follow:
		cc := s.db.clusterCtl
		if cc == nil {
			return nil, fmt.Errorf("FOLLOW requires cluster control (a lambdaserver with a data directory)")
		}
		if err := cc.Follow(ctx, n.Addr); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.WaitForClock:
		if err := s.db.WaitForClock(ctx, n.Clock); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("unsupported statement %T", st)
}

// execCopy bulk-loads a CSV file into a table (instant-loading style).
func (s *Session) execCopy(n *sql.Copy) (*Result, error) {
	if s.InTransaction() {
		return nil, fmt.Errorf("COPY is not supported inside an explicit transaction")
	}
	f, err := os.Open(n.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := load.CSV(s.db.store, n.Table, f, load.Options{
		Header:    n.Header,
		Delimiter: n.Delimiter,
		Workers:   s.db.workers,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: rows}, nil
}

// snapshot returns the read snapshot for the current statement.
func (s *Session) snapshot() uint64 {
	s.mu.Lock()
	tx := s.txn
	s.mu.Unlock()
	if tx != nil {
		return tx.Snapshot()
	}
	return s.db.store.Snapshot()
}

// write runs fn against the session transaction, or an autocommit one.
func (s *Session) write(fn func(tx *storage.Txn) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errSessionClosed
	}
	tx := s.txn
	s.mu.Unlock()
	if tx != nil {
		// A concurrent Close may roll tx back mid-statement; the Txn's own
		// locking turns that into a clean "transaction already finished"
		// error from the buffering calls.
		return fn(tx)
	}
	tx = s.db.store.Begin()
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

func (s *Session) execCreate(n *sql.CreateTable) (*Result, error) {
	_, err := s.db.store.CreateTable(n.Name, n.Schema)
	if err != nil && n.IfNotExists {
		return &Result{}, nil
	}
	return &Result{}, err
}

func (s *Session) execDrop(n *sql.DropTable) (*Result, error) {
	err := s.db.store.DropTable(n.Name)
	if err == nil {
		s.db.stats.drop(n.Name)
	}
	if err != nil && n.IfExists {
		return &Result{}, nil
	}
	return &Result{}, err
}

// newBuilder returns a plan builder configured with the session snapshot,
// the DB's iteration limit, and the system virtual tables.
func (s *Session) newBuilder() *plan.Builder {
	b := plan.NewBuilder(systemCatalog{db: s.db}, s.snapshot())
	if s.db.iterLimit > 0 {
		b.MaxDepth = s.db.iterLimit
	}
	b.Stats = &s.db.stats
	return b
}

// withStmtTimeout bounds ctx by the statement timeout, when one is set.
func (s *Session) withStmtTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.db.stmtTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.db.stmtTimeout)
}

// noParams rejects $N placeholders outside PREPARE.
func noParams(sel *sql.Select) error {
	if n, err := sql.NumParams(sel); err != nil {
		return err
	} else if n > 0 {
		return fmt.Errorf("statement has %d parameter placeholder(s); use PREPARE / EXECUTE to bind them", n)
	}
	return nil
}

// buildSelect plans sel, counting the time as the statement's plan time.
// The result is a template: run it with runPlan.
func (s *Session) buildSelect(st *stmt, sel *sql.Select) (plan.Node, error) {
	start := time.Now()
	node, err := s.newBuilder().BuildSelect(sel)
	st.planNs += time.Since(start).Nanoseconds()
	return node, err
}

// runPlan executes a plan template under the session's execution settings
// (workers, memory limit, statement timeout). The template is rebound to the
// session snapshot and args first, so a plan the cache shares is never run
// itself. When st collects, its per-operator stats tree and peak memory are
// recorded on st — for failed statements too, so cancelled work is
// observable.
func (s *Session) runPlan(ctx context.Context, st *stmt, tmpl plan.Node, args []types.Value) (*exec.Materialized, error) {
	node, err := plan.Rebind(tmpl, s.snapshot(), args)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.withStmtTimeout(ctx)
	defer cancel()
	ectx := exec.NewContext()
	ectx.Workers = s.db.workers
	ectx.AttachContext(ctx)
	ectx.SetMemoryLimit(s.db.memLimit)
	ectx.OnIndexProbe = func(rows int64) {
		s.db.metrics.IndexScans.Add(1)
		s.db.metrics.IndexRowsRead.Add(rows)
	}
	var sc *exec.StatsCollector
	if st.collect {
		sc = ectx.EnableStats()
	}
	mat, err := exec.Run(node, ectx)
	if sc != nil {
		st.stats = sc.Tree(node)
		st.peak = ectx.PeakBytes()
	}
	return mat, err
}

// runSelect runs a SELECT plan template and shapes the result.
func (s *Session) runSelect(ctx context.Context, st *stmt, tmpl plan.Node, args []types.Value) (*Result, error) {
	mat, err := s.runPlan(ctx, st, tmpl, args)
	if err != nil {
		return nil, err
	}
	colTypes := make([]types.Type, len(mat.Schema))
	for i, c := range mat.Schema {
		colTypes[i] = c.Type
	}
	return &Result{Columns: mat.Schema.Names(), Types: colTypes, Rows: mat.Rows()}, nil
}

// Explain returns the plan of a SELECT or DML statement as text without
// executing it.
func (s *Session) Explain(text string) (string, error) {
	st, err := sql.ParseOne(text)
	if err != nil {
		return "", err
	}
	if ex, ok := st.(*sql.Explain); ok {
		st = ex.Stmt
	}
	lines, err := s.explainLines(st)
	if err != nil {
		return "", err
	}
	return strings.Join(lines, "\n") + "\n", nil
}
