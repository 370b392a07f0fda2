package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lambdadb/internal/catalog"
	"lambdadb/internal/types"
)

// Store is the top-level main-memory database: a set of tables plus the
// global commit clock.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// nextTableID is the last table ID handed out. IDs distinguish
	// incarnations of a table name across DROP + CREATE, so a redo log can
	// tell whether a record still targets the incarnation it was written
	// against. Guarded by mu.
	nextTableID uint64

	// clock is the last assigned commit timestamp. A snapshot is simply a
	// clock reading: all rows committed at or before it are visible.
	clock atomic.Uint64

	// ddlVer counts catalog changes (CREATE/DROP TABLE, CREATE/DROP INDEX,
	// state adoption) — including ones applied by WAL replay or replication.
	// The engine's plan cache stamps entries with it so a schema change
	// invalidates every plan built against the old catalog.
	ddlVer atomic.Uint64

	// commitMu serializes commits so validation and apply are atomic.
	commitMu sync.Mutex

	// logger, when set, observes every committing transaction and schema
	// change before it is applied (write-ahead logging). nil in the default,
	// non-durable configuration; the commit path takes no logging branch and
	// performs no extra allocation then.
	logger CommitLogger
}

// CommitInsert is one table's inserted batch within a CommitData.
type CommitInsert struct {
	Table   string
	TableID uint64
	Batch   *types.Batch
}

// CommitDelete is one physical-row deletion within a CommitData.
type CommitDelete struct {
	Table   string
	TableID uint64
	Row     int
}

// CommitData describes one committing transaction for the CommitLogger: the
// commit timestamp it will publish plus every buffered write. The batches
// are shared with the transaction — loggers must encode them synchronously
// and not retain them.
type CommitData struct {
	TS      uint64
	Inserts []CommitInsert
	Deletes []CommitDelete
}

// CommitLogger is the storage layer's durability hook (write-ahead log).
//
// Log* methods are called while the relevant store lock is held — LogCommit
// under the commit lock after validation and before apply, the DDL hooks
// under the table-map lock — so log order equals apply order. They must
// only buffer the record and return quickly; returning a non-nil error
// fails the operation before anything is applied. The returned wait
// function is called after the locks are released and blocks until the
// record is durable; its error means the change is applied in memory but
// its durability is unconfirmed (the caller must not acknowledge it).
type CommitLogger interface {
	LogCommit(c *CommitData) (wait func() error, err error)
	LogCreateTable(name string, schema types.Schema, id uint64) (wait func() error, err error)
	LogDropTable(name string, id uint64) (wait func() error, err error)
	LogCreateIndex(def IndexDef, tableID uint64) (wait func() error, err error)
	LogDropIndex(index, table string, tableID uint64) (wait func() error, err error)
}

// SetCommitLogger installs the durability hook. It must be called before
// the store is shared between goroutines (recovery installs it before the
// engine starts serving); passing nil disables logging.
func (s *Store) SetCommitLogger(l CommitLogger) { s.logger = l }

// CommitLogger returns the installed durability hook, nil when there is
// none (an in-memory store, or a replica mirroring its primary's log).
func (s *Store) CommitLogger() CommitLogger { return s.logger }

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// CreateTable creates a new table. It fails if the name is taken.
func (s *Store) CreateTable(name string, schema types.Schema) (*Table, error) {
	s.mu.Lock()
	if _, ok := s.tables[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("table %q already exists", name)
	}
	t := NewTable(name, schema)
	t.id = s.nextTableID + 1
	var wait func() error
	if lg := s.logger; lg != nil {
		w, err := lg.LogCreateTable(name, schema, t.id)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		wait = w
	}
	s.nextTableID = t.id
	s.tables[name] = t
	s.ddlVer.Add(1)
	s.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return nil, fmt.Errorf("CREATE TABLE applied but not confirmed durable: %w", err)
		}
	}
	return t, nil
}

// CreateTableWithID creates a table carrying an explicit incarnation ID.
// It is a recovery-only API (snapshot load and log replay, before a
// CommitLogger is installed): the ID must come from the image or log so
// later log records can be matched against the right incarnation.
func (s *Store) CreateTableWithID(name string, schema types.Schema, id uint64) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("table %q already exists", name)
	}
	t := NewTable(name, schema)
	t.id = id
	if id > s.nextTableID {
		s.nextTableID = id
	}
	s.tables[name] = t
	s.ddlVer.Add(1)
	return t, nil
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	t, ok := s.tables[name]
	if !ok {
		s.mu.Unlock()
		return &catalog.ErrNoSuchTable{Name: name}
	}
	var wait func() error
	if lg := s.logger; lg != nil {
		w, err := lg.LogDropTable(name, t.id)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		wait = w
	}
	delete(s.tables, name)
	s.ddlVer.Add(1)
	s.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("DROP TABLE applied but not confirmed durable: %w", err)
		}
	}
	return nil
}

// CreateIndex creates a secondary index on an existing table. Index names
// are globally unique (DROP INDEX takes only a name). The definition is
// validated before it is logged, then built and installed atomically with
// respect to commits: addIndex holds the table lock, so the structure covers
// exactly the rows present at install time and the append hook covers every
// later one.
func (s *Store) CreateIndex(def IndexDef) error {
	s.mu.Lock()
	t, ok := s.tables[def.Table]
	if !ok {
		s.mu.Unlock()
		return &catalog.ErrNoSuchTable{Name: def.Table}
	}
	for _, other := range s.tables {
		if other.hasIndex(def.Name) {
			s.mu.Unlock()
			return fmt.Errorf("index %q already exists", def.Name)
		}
	}
	// Validate column and type now: the log must never record an operation
	// that cannot apply.
	col := t.Schema().IndexOf(def.Column)
	if col < 0 {
		s.mu.Unlock()
		return fmt.Errorf("table %q has no column %q", def.Table, def.Column)
	}
	if _, err := newIndexImpl(def.Kind, t.Schema()[col].Type); err != nil {
		s.mu.Unlock()
		return err
	}
	var wait func() error
	if lg := s.logger; lg != nil {
		w, err := lg.LogCreateIndex(def, t.id)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		wait = w
	}
	if err := t.AddIndex(def); err != nil {
		s.mu.Unlock()
		return err
	}
	s.ddlVer.Add(1)
	s.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("CREATE INDEX applied but not confirmed durable: %w", err)
		}
	}
	return nil
}

// DropIndex removes the named index from whichever table holds it.
func (s *Store) DropIndex(name string) error {
	s.mu.Lock()
	var t *Table
	for _, tb := range s.tables {
		if tb.hasIndex(name) {
			t = tb
			break
		}
	}
	if t == nil {
		s.mu.Unlock()
		return fmt.Errorf("index %q does not exist", name)
	}
	var wait func() error
	if lg := s.logger; lg != nil {
		w, err := lg.LogDropIndex(name, t.name, t.id)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		wait = w
	}
	t.dropIndex(name)
	s.ddlVer.Add(1)
	s.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("DROP INDEX applied but not confirmed durable: %w", err)
		}
	}
	return nil
}

// HasIndex reports whether any table has an index with the given name.
func (s *Store) HasIndex(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.tables {
		if t.hasIndex(name) {
			return true
		}
	}
	return false
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, &catalog.ErrNoSuchTable{Name: name}
	}
	return t, nil
}

// Resolve implements catalog.Catalog.
func (s *Store) Resolve(name string) (catalog.Relation, error) {
	return s.Table(name)
}

// TableNames returns the names of all tables.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	return out
}

// Snapshot returns the current snapshot timestamp.
func (s *Store) Snapshot() uint64 { return s.clock.Load() }

// WithCommitLock runs fn while holding the commit lock, so no commit is in
// flight and the clock cannot move. fn receives the current clock value.
// The checkpointer uses it to rotate the redo log exactly at a clock
// boundary: every record written before the rotation has a timestamp at or
// below the received clock, every record after it a higher one.
func (s *Store) WithCommitLock(fn func(clock uint64)) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	fn(s.clock.Load())
}

// RestoreClock forces the commit clock during recovery (snapshot load).
// It must not be used on a live store.
func (s *Store) RestoreClock(ts uint64) { s.clock.Store(ts) }

// AdoptState replaces this store's contents — tables, table-ID counter,
// and commit clock — with from's, in place, so every existing reference to
// this store observes the new state. A replica uses it when a snapshot
// resync replaces its entire database. from must be private to the caller
// (freshly loaded, never shared). In-flight scans keep the table pointers
// they already resolved and finish against the old state — a consistent,
// if stale, snapshot.
func (s *Store) AdoptState(from *Store) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = from.tables
	s.nextTableID = from.nextTableID
	s.clock.Store(from.clock.Load())
	s.ddlVer.Add(1)
}

// DDLVersion returns the current catalog-change counter. Plans cached at an
// older version must not be served.
func (s *Store) DDLVersion() uint64 { return s.ddlVer.Load() }

// lookupForReplay resolves a logged table reference. It returns nil when
// the name is gone or now names a different incarnation — the record then
// targeted a table that was concurrently dropped, and had no visible
// effect, so replay skips it.
func (s *Store) lookupForReplay(name string, id uint64) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[name]
	if t == nil || t.id != id {
		return nil
	}
	return t
}

// ApplyLoggedCommit re-applies one logged commit during recovery. Commit
// timestamps are contiguous (every logged commit advanced the clock by
// exactly one), so the record's timestamp must be exactly clock+1; a gap
// means a log record is missing and recovery must not guess.
func (s *Store) ApplyLoggedCommit(c *CommitData) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	ts := s.clock.Load() + 1
	if c.TS != ts {
		return fmt.Errorf("storage: replayed commit has timestamp %d, want %d (log record missing or duplicated)", c.TS, ts)
	}
	for _, d := range c.Deletes {
		t := s.lookupForReplay(d.Table, d.TableID)
		if t == nil {
			continue
		}
		if err := t.replayDelete(d.Row, ts); err != nil {
			return err
		}
	}
	for _, in := range c.Inserts {
		t := s.lookupForReplay(in.Table, in.TableID)
		if t == nil {
			continue
		}
		if len(in.Batch.Cols) != len(t.schema) {
			return fmt.Errorf("storage: replayed insert into %s has %d columns, table has %d",
				in.Table, len(in.Batch.Cols), len(t.schema))
		}
		for j, col := range t.schema {
			if got := in.Batch.Cols[j].T; got != col.Type {
				return fmt.Errorf("storage: replayed insert into %s column %q has type %s, table has %s",
					in.Table, col.Name, got, col.Type)
			}
		}
		t.appendRows(in.Batch, ts)
	}
	s.clock.Store(ts)
	return nil
}

// Begin starts a transaction reading at the current snapshot.
func (s *Store) Begin() *Txn {
	return &Txn{store: s, snapshot: s.clock.Load()}
}

// Txn is a transaction: a snapshot for reads plus buffered writes that are
// validated and applied atomically at commit. Write-write conflicts follow
// first-committer-wins.
//
// A Txn is built by one statement executor at a time, but Commit and
// Rollback may race with each other (a connection teardown rolling back
// while a commit is in flight): the internal mutex makes that safe, and
// whichever finishes the transaction first wins.
type Txn struct {
	store    *Store
	snapshot uint64

	mu      sync.Mutex
	done    bool
	inserts []bufferedInsert
	deletes []bufferedDelete
}

type bufferedInsert struct {
	table *Table
	batch *types.Batch
}

type bufferedDelete struct {
	table *Table
	row   int
}

// Snapshot returns the transaction's read snapshot.
func (tx *Txn) Snapshot() uint64 { return tx.snapshot }

// Insert buffers rows for insertion into table at commit. The batch must
// match the table's column count and column types exactly: a mis-typed
// batch would corrupt the column store when its vectors are bulk-appended.
func (tx *Txn) Insert(table *Table, b *types.Batch) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return errTxnDone
	}
	if len(b.Cols) != len(table.schema) {
		return fmt.Errorf("insert into %s: got %d columns, want %d",
			table.name, len(b.Cols), len(table.schema))
	}
	for j, col := range table.schema {
		if got := b.Cols[j].T; got != col.Type {
			return &TypeMismatchError{
				Table: table.name, Column: col.Name, Got: got, Want: col.Type,
			}
		}
	}
	tx.inserts = append(tx.inserts, bufferedInsert{table, b})
	return nil
}

// Delete buffers the deletion of a physical row. Buffering the same row
// more than once is allowed (scans do not see the transaction's own
// buffered deletes, so an UPDATE followed by a DELETE targets the same
// physical rows twice); Commit deduplicates.
func (tx *Txn) Delete(table *Table, row int) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return errTxnDone
	}
	tx.deletes = append(tx.deletes, bufferedDelete{table, row})
	return nil
}

// Commit validates and applies all buffered writes atomically, returning a
// ConflictError if another transaction deleted one of our target rows after
// our snapshot.
//
// Commit either publishes everything or publishes nothing: the commit
// timestamp is only advanced after every buffered write applied, and a
// failed commit unwinds any delete stamps it placed, so a later committer
// can never accidentally publish a failed transaction's writes by reusing
// its timestamp.
func (tx *Txn) Commit() error {
	wait, err := tx.commit()
	if err != nil {
		return err
	}
	if wait != nil {
		// Block until the write-ahead record is durable, outside every lock
		// so concurrent committers batch into one fsync (group commit). An
		// error here means the commit is applied in memory but its record
		// may not have reached disk: the caller must treat the transaction
		// as failed (it was never acknowledged), and the log has latched
		// the failure so no later commit can be acknowledged past the gap.
		if err := wait(); err != nil {
			return fmt.Errorf("commit applied but not confirmed durable: %w", err)
		}
	}
	return nil
}

// commit validates, logs, and applies the transaction under the commit
// lock, returning the logger's durability wait (nil without a logger).
func (tx *Txn) commit() (wait func() error, err error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, errTxnDone
	}
	tx.done = true
	// One transaction may buffer the same physical row for deletion more
	// than once (UPDATE then DELETE, or DELETE twice — scans never see the
	// transaction's own buffered deletes). Deduplicate so the apply loop
	// below stamps each row exactly once.
	deletes := dedupeDeletes(tx.deletes)
	if len(tx.inserts) == 0 && len(deletes) == 0 {
		return nil, nil
	}
	s := tx.store
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	// Validate deletes first (first-committer-wins): any target row deleted
	// after our snapshot is a conflict. Bounds are checked here too, so an
	// invalid row index fails the commit before anything is stamped.
	for _, d := range deletes {
		_, del, err := d.table.rowVersion(d.row)
		if err != nil {
			return nil, err
		}
		if del != 0 && del > tx.snapshot {
			return nil, &ConflictError{Table: d.table.name, Row: d.row}
		}
	}

	ts := s.clock.Load() + 1

	// Write-ahead: hand the validated commit to the logger before anything
	// is applied. Appends are ordered by the commit lock, so log order is
	// commit order; a logging failure fails the commit with nothing stamped.
	if lg := s.logger; lg != nil {
		c := &CommitData{TS: ts}
		for _, in := range tx.inserts {
			if in.batch.Len() == 0 {
				continue
			}
			c.Inserts = append(c.Inserts, CommitInsert{
				Table: in.table.name, TableID: in.table.id, Batch: in.batch,
			})
		}
		for _, d := range deletes {
			c.Deletes = append(c.Deletes, CommitDelete{
				Table: d.table.name, TableID: d.table.id, Row: d.row,
			})
		}
		if wait, err = lg.LogCommit(c); err != nil {
			return nil, err
		}
	}

	for k, d := range deletes {
		if err := d.table.deleteRow(d.row, ts, tx.snapshot); err != nil {
			// Cannot happen after validation while holding commitMu, but if
			// it ever does, unwind the stamps already placed: ts was never
			// published, and the next committer will reuse it.
			for _, u := range deletes[:k] {
				u.table.undeleteRow(u.row, ts)
			}
			return nil, err
		}
	}
	for _, in := range tx.inserts {
		in.table.appendRows(in.batch, ts)
	}
	// Publish: rows become visible to snapshots taken from now on.
	s.clock.Store(ts)
	return wait, nil
}

// dedupeDeletes drops repeated (table, row) targets, keeping first
// occurrence order. The common cases (no deletes, a single delete) return
// the slice untouched.
func dedupeDeletes(ds []bufferedDelete) []bufferedDelete {
	if len(ds) < 2 {
		return ds
	}
	type target struct {
		t   *Table
		row int
	}
	seen := make(map[target]struct{}, len(ds))
	out := ds[:0]
	for _, d := range ds {
		k := target{d.table, d.row}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, d)
	}
	return out
}

// Rollback discards all buffered writes.
func (tx *Txn) Rollback() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.done = true
	tx.inserts = nil
	tx.deletes = nil
}

var errTxnDone = fmt.Errorf("transaction already finished")
