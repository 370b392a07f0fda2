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
	"slices"
	"sort"
	"sync"

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

// emit is the one batch builder behind every scan and index probe. Each
// round takes the read lock once: next returns the round's rows — ascending
// physical indexes, at most BatchSize — and whether another round follows,
// and the rows are gathered (or, when they form one contiguous run, viewed
// without a copy — rows never move once appended) before the lock is
// released and yield sees the batch with its rows.
func (t *Table) emit(next func() ([]int, bool), yield func(*types.Batch, []int) error) error {
	for more := true; more; {
		var rows []int
		t.mu.RLock()
		rows, more = next()
		var b *types.Batch
		if n := len(rows); n > 0 {
			b = &types.Batch{Schema: t.schema, Cols: make([]*types.Column, len(t.cols))}
			run := rows[n-1]-rows[0] == n-1
			for j, c := range t.cols {
				if run {
					b.Cols[j] = c.Slice(rows[0], rows[n-1]+1)
				} else {
					b.Cols[j] = c.Gather(rows)
				}
			}
		}
		t.mu.RUnlock()
		if b != nil {
			if err := yield(b, rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanVisible hands emit the rows of [lo, hi) visible at snapshot, one
// BatchSize stretch of physical rows per round. Rows appended after the
// scan started are invisible at snapshot, so the per-round lock suffices.
func (t *Table) scanVisible(snapshot uint64, lo, hi int, yield func(*types.Batch, []int) error) error {
	idx := make([]int, 0, types.BatchSize)
	start := max(lo, 0)
	return t.emit(func() ([]int, bool) {
		n, rows, i := min(hi, len(t.createdAt)), idx[:0], start
		for end := min(i+types.BatchSize, n); i < end; i++ {
			if t.visibleLocked(i, snapshot) {
				rows = append(rows, i)
			}
		}
		start = i
		return rows, i < n
	}, yield)
}

// Scan yields batches of rows visible at snapshot.
func (t *Table) Scan(snapshot uint64, yield func(*types.Batch) error) error {
	return t.ScanRange(snapshot, 0, t.PhysicalRows(), yield)
}

// ScanRange yields batches of visible rows whose physical index is in
// [lo, hi).
func (t *Table) ScanRange(snapshot uint64, lo, hi int, yield func(*types.Batch) error) error {
	return t.scanVisible(snapshot, lo, hi, func(b *types.Batch, _ []int) error { return yield(b) })
}

// ScanWithRowIDs yields batches of visible rows together with their physical
// row indices. DML execution (UPDATE/DELETE) uses it to address the rows it
// must version.
func (t *Table) ScanWithRowIDs(snapshot uint64, yield func(b *types.Batch, rowIDs []int) error) error {
	return t.scanVisible(snapshot, 0, t.PhysicalRows(), func(b *types.Batch, rows []int) error {
		return yield(b, slices.Clone(rows))
	})
}

// ScanPhysical yields the physical row prefix created at or before clock,
// in physical order and with per-row version stamps (valid only during the
// call); deletions stamped after clock are reported as live (0). Commit
// timestamps are assigned under the commit lock and rows append at the
// tail, so createdAt is non-decreasing and the rows at or before clock are
// exactly a prefix. Checkpointing uses this to write a consistent physical
// image of the store as of clock while commits continue.
func (t *Table) ScanPhysical(clock uint64, yield func(b *types.Batch, createdAt, deletedAt []uint64) error) error {
	t.mu.RLock()
	n := sort.Search(len(t.createdAt), func(i int) bool { return t.createdAt[i] > clock })
	t.mu.RUnlock()
	var rows []int
	var created, deleted []uint64
	start := 0
	return t.emit(func() ([]int, bool) {
		rows, created, deleted = rows[:0], created[:0], deleted[:0]
		for end := min(start+types.BatchSize, n); start < end; start++ {
			d := t.deletedAt[start]
			if d > clock {
				d = 0
			}
			rows, created, deleted = append(rows, start), append(created, t.createdAt[start]), append(deleted, d)
		}
		return rows, start < n
	}, func(b *types.Batch, _ []int) error { return yield(b, created, deleted) })
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
