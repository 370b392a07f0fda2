// Package storage implements the main-memory column store and the
// transaction layer on top of it.
//
// Tables are append-optimized: columns grow at the tail, and deletes set a
// per-row deletion timestamp. Visibility follows snapshot semantics: a row
// is visible at snapshot S when it was created at or before S and not
// deleted at or before S. Updates are delete+insert. This mirrors the
// versioning scheme of main-memory systems like HyPer closely enough to
// exercise the paper's "fully transactional environment" claim while
// staying within the standard library.
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"lambdadb/internal/catalog"
	"lambdadb/internal/types"
)

// Table is a main-memory columnar table with per-row version metadata.
type Table struct {
	name   string
	schema types.Schema
	id     uint64 // incarnation ID, unique across DROP + re-CREATE (see Store)

	mu        sync.RWMutex
	cols      []*types.Column
	createdAt []uint64 // commit timestamp that created the row
	deletedAt []uint64 // commit timestamp that deleted the row; 0 = live
	liveRows  int      // rows with deletedAt == 0
	maxTS     uint64   // newest commit timestamp that touched this table
	indexes   []*tableIndex
}

// NewTable creates an empty table.
func NewTable(name string, schema types.Schema) *Table {
	t := &Table{name: name, schema: schema}
	t.cols = make([]*types.Column, len(schema))
	for i, c := range schema {
		t.cols[i] = types.NewColumn(c.Type, 0)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// ID returns the table's incarnation ID (0 for tables created outside a
// Store). Redo-log records carry it so replay can tell a record that
// targeted a dropped incarnation from one targeting the current table.
func (t *Table) ID() uint64 { return t.id }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// PhysicalRows returns the number of physical row slots (live + dead).
func (t *Table) PhysicalRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.createdAt)
}

// NumRows returns the number of rows visible at snapshot.
func (t *Table) NumRows(snapshot uint64) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Fast path: when the snapshot is at least as new as the last write to
	// this table, exactly the live rows are visible — O(1), which matters
	// because the planner calls this for cardinality estimates.
	if snapshot >= t.maxTS {
		return t.liveRows
	}
	n := 0
	for i := range t.createdAt {
		if t.visibleLocked(i, snapshot) {
			n++
		}
	}
	return n
}

func (t *Table) visibleLocked(i int, snapshot uint64) bool {
	if t.createdAt[i] > snapshot {
		return false
	}
	d := t.deletedAt[i]
	return d == 0 || d > snapshot
}

// cursor is the one batch builder behind every scan, index probe and
// checkpoint scan. Each Next takes the read lock once per round: the round
// picks its rows — ascending physical indexes, at most BatchSize — and they
// are gathered (or, when they form one contiguous run, viewed without a copy:
// rows never move once appended) before the lock is released. A table cursor
// reads one BatchSize stretch of [next, hi) per round; rows appended after
// the snapshot are invisible at it, so the per-round lock suffices. An index
// cursor probes on its first Next and then hands out the visible hits
// BatchSize at a time.
//
// A batch from Next is borrowed until the next call: its header, and the
// columns of a gathered round, are the cursor's, rewritten every round
// (types.Retain). A viewed round's columns are views of the table.
type cursor struct {
	t        *Table
	snapshot uint64
	physical bool // admit every row of the range, deleted ones too

	next, hi int   // table cursor: the physical rows [next, hi) not yet read
	buf      []int // table cursor: the round's row ids, reused across rounds

	index  *tableIndex // index cursor
	probe  catalog.IndexProbe
	probed bool
	hits   []int // index cursor: visible hits not yet handed out

	out  types.Batch    // the header every round is lent in
	bufs []types.Buffer // a gathered round's columns, made by the first gather
}

// Cursor implements catalog.Relation.
func (t *Table) Cursor(snapshot uint64, lo, hi int) catalog.Cursor {
	if hi < 0 {
		hi = math.MaxInt
	}
	return &cursor{t: t, snapshot: snapshot, next: max(lo, 0), hi: hi}
}

// Next implements catalog.Cursor.
func (c *cursor) Next() (*types.Batch, []int) {
	t := c.t
	for j := range c.bufs {
		c.bufs[j].Poison() // the previous round's loan ends here
	}
	for {
		t.mu.RLock()
		ids, more := c.roundLocked()
		if n := len(ids); n > 0 {
			b := c.header()
			run := ids[n-1]-ids[0] == n-1
			for j, col := range t.cols {
				if run {
					b.Cols[j] = col.Slice(ids[0], ids[n-1]+1)
				} else {
					b.Cols[j] = c.buffer(j).Gather(col, ids)
				}
			}
			t.mu.RUnlock()
			return b, ids
		}
		t.mu.RUnlock()
		if !more {
			return nil, nil
		}
	}
}

// header returns the batch header the cursor lends every round in.
func (c *cursor) header() *types.Batch {
	if c.out.Cols == nil {
		c.out = types.Batch{Schema: c.t.schema, Cols: make([]*types.Column, len(c.t.cols)), Reused: true}
	}
	return &c.out
}

// buffer returns column j's gather buffer; a cursor whose rounds are all
// contiguous runs never makes one.
func (c *cursor) buffer(j int) *types.Buffer {
	if c.bufs == nil {
		c.bufs = make([]types.Buffer, len(c.t.cols))
	}
	return &c.bufs[j]
}

// roundLocked picks the next round's rows and reports whether another round
// follows; the caller holds the read lock.
func (c *cursor) roundLocked() (ids []int, more bool) {
	t := c.t
	if c.index != nil {
		if !c.probed {
			c.hits, c.probed = t.hitsLocked(c.index, c.probe, c.snapshot), true
		}
		k := min(len(c.hits), types.BatchSize)
		ids, c.hits = c.hits[:k], c.hits[k:]
		return ids, len(c.hits) > 0
	}
	if c.buf == nil {
		// First round: every row created at or before the snapshot is
		// appended by now, so the range ends at today's tail.
		c.buf = make([]int, 0, types.BatchSize)
		c.hi = min(c.hi, len(t.createdAt))
	}
	ids = c.buf[:0]
	for end := min(c.next+types.BatchSize, c.hi); c.next < end; c.next++ {
		if c.physical || t.visibleLocked(c.next, c.snapshot) {
			ids = append(ids, c.next)
		}
	}
	return ids, c.next < c.hi
}

// Scan calls yield with each batch of rows visible at snapshot until the
// table is exhausted or yield fails: a loop over Cursor for callers that
// consume a whole table at once. A batch is borrowed for the call.
func (t *Table) Scan(snapshot uint64, yield func(*types.Batch) error) error {
	c := t.Cursor(snapshot, 0, -1)
	for b, _ := c.Next(); b != nil; b, _ = c.Next() {
		if err := yield(b); err != nil {
			return err
		}
	}
	return nil
}

// ScanPhysical yields the physical row prefix created at or before clock,
// in physical order and with per-row version stamps (valid only during the
// call); deletions stamped after clock are reported as live (0). Commit
// timestamps are assigned under the commit lock and rows append at the
// tail, so createdAt is non-decreasing and the rows at or before clock are
// exactly a prefix; a commit stamps its deletes before it publishes its
// timestamp, so every stamp at or before clock is already set. Checkpointing
// uses this to write a consistent physical image of the store as of clock
// while commits continue.
func (t *Table) ScanPhysical(clock uint64, yield func(b *types.Batch, createdAt, deletedAt []uint64) error) error {
	t.mu.RLock()
	n := sort.Search(len(t.createdAt), func(i int) bool { return t.createdAt[i] > clock })
	t.mu.RUnlock()
	c := &cursor{t: t, snapshot: clock, physical: true, hi: n}
	var created, deleted []uint64
	for b, ids := c.Next(); b != nil; b, ids = c.Next() {
		created, deleted = created[:0], deleted[:0]
		t.mu.RLock()
		for _, i := range ids {
			d := t.deletedAt[i]
			if d > clock {
				d = 0
			}
			created, deleted = append(created, t.createdAt[i]), append(deleted, d)
		}
		t.mu.RUnlock()
		if err := yield(b, created, deleted); err != nil {
			return err
		}
	}
	return nil
}

// checkBatch verifies that b matches the table's column count and column
// types exactly: a mis-typed batch would corrupt the column store when its
// vectors are bulk-appended.
func (t *Table) checkBatch(b *types.Batch) error {
	if len(b.Cols) != len(t.schema) {
		return fmt.Errorf("insert into %s: got %d columns, want %d", t.name, len(b.Cols), len(t.schema))
	}
	for j, col := range t.schema {
		if got := b.Cols[j].T; got != col.Type {
			return &TypeMismatchError{Table: t.name, Column: col.Name, Got: got, Want: col.Type}
		}
	}
	return nil
}

// appendRows is the one append: columns, index postings, version stamps. A
// commit passes its timestamp and nil stamps (every row created at ts and
// live); an image restore passes one createdAt and deletedAt stamp per row.
func (t *Table) appendRows(b *types.Batch, ts uint64, createdAt, deletedAt []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.createdAt)
	for j, c := range t.cols {
		c.AppendColumn(b.Cols[j])
	}
	for _, ix := range t.indexes {
		ix.impl.insert(b.Cols[ix.col], base)
	}
	for i := range b.Len() {
		c, d := ts, uint64(0)
		if createdAt != nil {
			c, d = createdAt[i], deletedAt[i]
		}
		t.createdAt = append(t.createdAt, c)
		t.deletedAt = append(t.deletedAt, d)
		if d == 0 {
			t.liveRows++
		}
		t.maxTS = max(t.maxTS, c, d)
	}
}

// RestoreRows bulk-appends physical rows with explicit version stamps. It
// is a recovery-only API used to load a physical snapshot image: the rows
// keep their original physical positions, creation and deletion
// timestamps, so redo-log records that reference physical row indexes
// resolve exactly as they did before the crash.
func (t *Table) RestoreRows(b *types.Batch, createdAt, deletedAt []uint64) error {
	if n := b.Len(); len(createdAt) != n || len(deletedAt) != n {
		return fmt.Errorf("storage: restore of %d rows in %s with %d/%d version stamps",
			n, t.name, len(createdAt), len(deletedAt))
	}
	if err := t.checkBatch(b); err != nil {
		return err
	}
	t.appendRows(b, 0, createdAt, deletedAt)
	return nil
}

// stamp marks physical row i deleted at ts. The one caller, commitLocked,
// holds the commit lock and has checked that the row is live.
func (t *Table) stamp(i int, ts uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deletedAt[i] = ts
	t.liveRows--
	t.maxTS = max(t.maxTS, ts)
}

// rowVersion returns (createdAt, deletedAt) of physical row i, or an error
// when i is not a physical row of the table.
func (t *Table) rowVersion(i int) (uint64, uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.createdAt) {
		return 0, 0, fmt.Errorf("storage: version of out-of-range row %d in %s", i, t.name)
	}
	return t.createdAt[i], t.deletedAt[i], nil
}

// ConflictError reports a write-write conflict (first-committer-wins).
type ConflictError struct {
	Table string
	Row   int
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("serialization conflict on table %q row %d", e.Table, e.Row)
}

// TypeMismatchError reports an insert batch whose column type does not
// match the table schema.
type TypeMismatchError struct {
	Table  string
	Column string
	Got    types.Type
	Want   types.Type
}

func (e *TypeMismatchError) Error() string {
	return fmt.Sprintf("type mismatch inserting into %q: column %q holds %s, batch provides %s",
		e.Table, e.Column, e.Want, e.Got)
}
