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

// ChangeKind says what a Change does. The values are the redo log's record
// kind bytes.
type ChangeKind uint8

// Change kinds.
const (
	ChangeCommit      ChangeKind = 1
	ChangeCreateTable ChangeKind = 2
	ChangeDropTable   ChangeKind = 3
	ChangeCreateIndex ChangeKind = 4
	ChangeDropIndex   ChangeKind = 5
)

var changeNames = [...]string{ChangeCommit: "COMMIT", ChangeCreateTable: "CREATE TABLE",
	ChangeDropTable: "DROP TABLE", ChangeCreateIndex: "CREATE INDEX", ChangeDropIndex: "DROP INDEX"}

// String returns the SQL spelling of the kind.
func (k ChangeKind) String() string {
	if int(k) < len(changeNames) && changeNames[k] != "" {
		return changeNames[k]
	}
	return fmt.Sprintf("change kind %d", k)
}

// Change is one logged change to the store — a commit or a catalog change
// — and the one value storage and its log exchange: the store hands it to
// the CommitLogger before applying it, the redo log encodes it byte for
// byte, and recovery and replicas hand the decoded value back to Replay.
// A commit's batches are shared with the transaction; loggers must encode
// them synchronously and not retain them.
type Change struct {
	Kind    ChangeKind
	TS      uint64         // ChangeCommit: the commit timestamp it publishes
	Inserts []CommitInsert // ChangeCommit
	Deletes []CommitDelete // ChangeCommit
	Table   string         // catalog changes: the table
	TableID uint64         // catalog changes: the table's incarnation
	Schema  types.Schema   // ChangeCreateTable
	Index   IndexDef       // ChangeCreateIndex (Index.Table = Table); ChangeDropIndex: Name only
}

// CommitInsert is one table's inserted batch within a commit.
type CommitInsert struct {
	Table   string
	TableID uint64
	Batch   *types.Batch
}

// CommitDelete is one physical-row deletion within a commit.
type CommitDelete struct {
	Table   string
	TableID uint64
	Row     int
}

// CommitLogger is the storage layer's durability hook (write-ahead log).
//
// Log is called while the store lock that orders the change is held — the
// commit lock after validation and before apply, the table-map lock for a
// catalog change — so log order equals apply order. It must only buffer the
// record and return quickly; returning a non-nil error fails the change
// before anything is applied. The returned wait function is called after
// the locks are released and blocks until the record is durable; its error
// means the change is applied in memory but its durability is unconfirmed
// (the caller must not acknowledge it).
type CommitLogger interface {
	Log(c *Change) (wait func() error, err error)
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
	t, _, err := s.ddl(&Change{Kind: ChangeCreateTable, Table: name, Schema: schema}, false)
	return t, err
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	_, _, err := s.ddl(&Change{Kind: ChangeDropTable, Table: name}, false)
	return err
}

// CreateIndex creates a secondary index on an existing table. Index names
// are globally unique (DROP INDEX takes only a name). The structure is
// built and installed under the table lock, so it covers exactly the rows
// present at install time and the append path covers every later one.
func (s *Store) CreateIndex(def IndexDef) error {
	_, _, err := s.ddl(&Change{Kind: ChangeCreateIndex, Table: def.Table, Index: def}, false)
	return err
}

// DropIndex removes the named index from whichever table holds it.
func (s *Store) DropIndex(name string) error {
	_, _, err := s.ddl(&Change{Kind: ChangeDropIndex, Index: IndexDef{Name: name}}, false)
	return err
}

// ddl is the one catalog-change path, shared by the four DDL methods and
// Replay: under the table-map lock it validates the change (prepare), hands
// it to the logger unless replaying, applies it, and bumps the catalog
// version; the durability wait runs after the lock is released. A replayed
// change whose effect is already present is skipped (applied is false).
func (s *Store) ddl(c *Change, replay bool) (t *Table, applied bool, err error) {
	s.mu.Lock()
	t, apply, err := s.prepare(c, replay)
	var wait func() error
	if err == nil && apply != nil && !replay && s.logger != nil {
		wait, err = s.logger.Log(c)
	}
	if err == nil && apply != nil {
		apply()
		s.ddlVer.Add(1)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return nil, true, fmt.Errorf("%s applied but not confirmed durable: %w", c.Kind, err)
		}
	}
	return t, apply != nil, nil
}

// prepare validates a catalog change (the caller holds s.mu) and returns
// the table it targets and the step that applies it; a nil step skips a
// replayed change. A live change is completed here — the new table's ID,
// the table a DROP INDEX names — so the logged record is whole. A replayed
// one carries both, and catalog changes carry no timestamp, so a change an
// image cut after it already reflects must be skipped: one against a table
// incarnation that is gone (it died with the table), a CREATE TABLE whose
// incarnation is present, a CREATE INDEX whose identical definition is
// present, a DROP INDEX whose index is gone.
func (s *Store) prepare(c *Change, replay bool) (*Table, func(), error) {
	t := s.tables[c.Table]
	switch {
	case c.Kind == ChangeCreateTable:
		if t != nil {
			if replay && t.id == c.TableID {
				return t, nil, nil
			}
			return nil, nil, fmt.Errorf("table %q already exists", c.Table)
		}
		if !replay {
			c.TableID = s.nextTableID + 1
		}
		t = NewTable(c.Table, c.Schema)
		t.id = c.TableID
		return t, func() {
			s.tables[t.name] = t
			s.nextTableID = max(s.nextTableID, t.id)
		}, nil
	case c.Kind < ChangeDropTable || c.Kind > ChangeDropIndex:
		return nil, nil, fmt.Errorf("storage: %s is not a catalog change", c.Kind)
	case replay:
		if t = s.incarnation(c.Table, c.TableID); t == nil {
			return nil, nil, nil
		}
	case c.Kind == ChangeDropIndex:
		if t = s.indexOwner(c.Index.Name); t == nil {
			return nil, nil, fmt.Errorf("index %q does not exist", c.Index.Name)
		}
	case t == nil:
		return nil, nil, &catalog.ErrNoSuchTable{Name: c.Table}
	}
	c.Table, c.TableID = t.name, t.id
	switch c.Kind {
	case ChangeDropTable:
		return t, func() { delete(s.tables, t.name) }, nil
	case ChangeDropIndex:
		if _, ok := t.indexDef(c.Index.Name); !ok {
			return t, nil, nil
		}
		return t, func() { t.dropIndex(c.Index.Name) }, nil
	}
	if def, ok := t.indexDef(c.Index.Name); ok && replay && def == c.Index {
		return t, nil, nil
	}
	if s.indexOwner(c.Index.Name) != nil {
		return nil, nil, fmt.Errorf("index %q already exists", c.Index.Name)
	}
	ix, err := t.newIndex(c.Index)
	if err != nil {
		return nil, nil, err
	}
	return t, func() { t.installIndex(ix) }, nil
}

// incarnation returns the named table if it is still incarnation id. A
// logged change against a name that is gone, or now names a later
// incarnation, had no visible effect, and replay skips it. The caller
// holds s.mu.
func (s *Store) incarnation(name string, id uint64) *Table {
	if t := s.tables[name]; t != nil && t.id == id {
		return t
	}
	return nil
}

// indexOwner returns the table holding the named index; the caller holds
// s.mu.
func (s *Store) indexOwner(name string) *Table {
	for _, t := range s.tables {
		if _, ok := t.indexDef(name); ok {
			return t
		}
	}
	return nil
}

// HasIndex reports whether any table has an index with the given name.
func (s *Store) HasIndex(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexOwner(name) != nil
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

// Replay applies one logged change — read back from the log in recovery,
// or streamed from a primary — through the same step a live change takes,
// without logging it, and reports whether it had an effect. The
// idempotency rules live here: catalog changes follow prepare's; a commit
// at or below floor is skipped (recovery passes the image's clock, a
// streaming replica its live clock), and any other must carry exactly
// clock+1 — a gap, or a duplicate above floor, means a record is missing
// and replay must not guess. A replayed commit skips the parts whose table
// incarnation is gone and requires every delete target to be live.
func (s *Store) Replay(c *Change, floor uint64) (applied bool, err error) {
	if c.Kind != ChangeCommit {
		_, applied, err = s.ddl(c, true)
		return applied, err
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if c.TS <= floor {
		return false, nil
	}
	if want := s.clock.Load() + 1; c.TS != want {
		return false, fmt.Errorf("storage: replayed commit has timestamp %d, want %d (log record missing or duplicated)", c.TS, want)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ins []bufferedInsert
	for _, in := range c.Inserts {
		if t := s.incarnation(in.Table, in.TableID); t != nil {
			if err := t.checkBatch(in.Batch); err != nil {
				return false, err
			}
			ins = append(ins, bufferedInsert{t, in.Batch})
		}
	}
	var dels []bufferedDelete
	for _, d := range c.Deletes {
		if t := s.incarnation(d.Table, d.TableID); t != nil {
			dels = append(dels, bufferedDelete{t, d.Row})
		}
	}
	if _, err := s.commitLocked(c.TS, 0, ins, dels, nil); err != nil {
		return false, fmt.Errorf("storage: replayed commit %d: %w", c.TS, err)
	}
	return true, nil
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
// match the table's column count and column types exactly (see checkBatch).
func (tx *Txn) Insert(table *Table, b *types.Batch) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return errTxnDone
	}
	if err := table.checkBatch(b); err != nil {
		return err
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
// Commit either publishes everything or publishes nothing: every check runs
// before the first write is applied, and the commit timestamp is published
// only after every write applied.
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

// commit runs the transaction through commitLocked under the commit lock,
// returning the logger's durability wait (nil without a logger).
func (tx *Txn) commit() (wait func() error, err error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, errTxnDone
	}
	tx.done = true
	if len(tx.inserts) == 0 && len(tx.deletes) == 0 {
		return nil, nil
	}
	s := tx.store
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.commitLocked(s.clock.Load()+1, tx.snapshot, tx.inserts, tx.deletes, s.logger)
}

// commitLocked is the one commit step, run under the commit lock by
// Txn.commit and Replay. First-committer-wins comes first: every delete
// target must be a physical row not deleted after snapshot, and a target
// already dead at snapshot has nothing left to stamp (Replay passes 0, so
// a target that is not live means log and store disagree). Only then does
// the logger, if any, see the change — a logging failure fails the commit
// with nothing applied — and are the deletes stamped, the inserts appended
// and ts published: rows become visible to snapshots taken from now on.
func (s *Store) commitLocked(ts, snapshot uint64, ins []bufferedInsert, dels []bufferedDelete, lg CommitLogger) (wait func() error, err error) {
	dels = dedupeDeletes(dels)
	live := dels[:0]
	for _, d := range dels {
		_, del, err := d.table.rowVersion(d.row)
		switch {
		case err != nil:
			return nil, err
		case del > snapshot:
			return nil, &ConflictError{Table: d.table.name, Row: d.row}
		case del == 0:
			live = append(live, d)
		}
	}
	if lg != nil {
		c := &Change{Kind: ChangeCommit, TS: ts}
		for _, in := range ins {
			if in.batch.Len() > 0 {
				c.Inserts = append(c.Inserts, CommitInsert{Table: in.table.name, TableID: in.table.id, Batch: in.batch})
			}
		}
		for _, d := range live {
			c.Deletes = append(c.Deletes, CommitDelete{Table: d.table.name, TableID: d.table.id, Row: d.row})
		}
		if wait, err = lg.Log(c); err != nil {
			return nil, err
		}
	}
	for _, d := range live {
		d.table.stamp(d.row, ts)
	}
	for _, in := range ins {
		in.table.appendRows(in.batch, ts, nil, nil)
	}
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
