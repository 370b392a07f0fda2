// Package catalog defines the interfaces through which the planner and
// executor see stored relations, decoupling them from the storage engine.
package catalog

import (
	"fmt"

	"lambdadb/internal/types"
)

// Cursor hands out a relation's rows one batch per Next, on the caller's
// goroutine. A cursor does no work before its first Next.
type Cursor interface {
	// Next returns the next batch, or nil once the cursor is exhausted. The
	// batch is borrowed until the next call: a caller that keeps it keeps
	// types.Retain of it.
	Next() *types.Batch
	// RowIDs returns the physical row ids of the last batch's rows, valid
	// until the next call of Next. A cursor writes them out only when
	// asked; one over rows without physical positions returns nil.
	RowIDs() []int
}

// Relation is a readable stored relation at some snapshot.
type Relation interface {
	// Name returns the table name.
	Name() string
	// Schema returns the column layout.
	Schema() types.Schema
	// NumRows returns the number of rows visible at the given snapshot.
	// It is used for cardinality estimation and may be approximate.
	NumRows(snapshot uint64) int
	// Cursor returns a cursor over the rows visible at snapshot whose
	// physical index is in [lo, hi) (hi < 0: to the end), in row order;
	// parallel scans partition a table into morsels by range.
	Cursor(snapshot uint64, lo, hi int) Cursor
	// PhysicalRows returns the physical row count (including rows not
	// visible at a given snapshot) for morsel partitioning.
	PhysicalRows() int
}

// IndexInfo describes one secondary index for planning and introspection.
type IndexInfo struct {
	Name    string
	Column  string
	Kind    string // "HASH" or "ORDERED"
	Keys    int    // distinct keys indexed (approximate between merges)
	Entries int    // postings: physical rows indexed, dead versions included
}

// IndexProbe is what an index cursor looks up: an equality probe (Eq set)
// or a range (nil bound = unbounded side).
type IndexProbe struct {
	Eq           *types.Value
	Lo, Hi       *types.Value
	LoInc, HiInc bool
}

// IndexedRelation is a Relation whose backing store maintains secondary
// indexes. An index cursor hands out the rows visible at snapshot whose
// indexed column satisfies the probe, in physical row order.
type IndexedRelation interface {
	Relation
	Indexes() []IndexInfo
	IndexCursor(index string, probe IndexProbe, snapshot uint64) (Cursor, error)
}

// Batches is a Cursor over batches already built, in order; its row ids
// are nil.
type Batches []*types.Batch

// Next implements Cursor.
func (c *Batches) Next() *types.Batch {
	if len(*c) == 0 {
		return nil
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return b
}

// RowIDs implements Cursor.
func (c *Batches) RowIDs() []int { return nil }

// Catalog resolves table names to relations.
type Catalog interface {
	Resolve(name string) (Relation, error)
}

// ErrNoSuchTable is returned by Resolve for unknown tables.
type ErrNoSuchTable struct{ Name string }

func (e *ErrNoSuchTable) Error() string {
	return fmt.Sprintf("table %q does not exist", e.Name)
}
