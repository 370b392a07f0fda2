package exec

import (
	"sync/atomic"

	"lambdadb/internal/types"
)

// memAccountant tracks the bytes a query holds in materializations against
// a configured budget. The rule: the sink that retains data charges it —
// materialized batches, hash-join tables, a full sort's input, aggregation
// tables, the analytical operators' matrices and edge arrays — and whoever drops
// retained state (ITERATE's previous working table, an aggregation table or
// matrix once its operator has produced its output, the context cache what
// it held for a round that is over) releases it, so a runaway query fails
// with a typed ResourceError instead of driving the process out of memory.
// The counter is a conservative high-water estimate: pipelined stages that
// hand a materialization to their parent may be counted at both levels.
type memAccountant struct {
	limit int64
	used  atomic.Int64
	// peak is the high-water mark of used, kept for telemetry (EXPLAIN
	// ANALYZE, system.query_log peak_bytes).
	peak atomic.Int64
}

// charge reserves n bytes on behalf of op, failing with a *ResourceError
// when the budget would be exceeded. A nil accountant (no limit) is free.
func (a *memAccountant) charge(op string, n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	used := a.used.Add(n)
	if used > a.limit {
		a.used.Add(-n)
		return &ResourceError{Operator: op, Limit: a.limit, Requested: used}
	}
	for {
		p := a.peak.Load()
		if used <= p || a.peak.CompareAndSwap(p, used) {
			break
		}
	}
	return nil
}

// release returns n bytes to the budget (dropped working tables).
func (a *memAccountant) release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(-n)
}

// SetMemoryLimit caps the bytes this query may hold in materializations;
// bytes <= 0 means unlimited (the default).
func (c *Context) SetMemoryLimit(bytes int64) {
	if bytes > 0 {
		c.mem = &memAccountant{limit: bytes}
	} else {
		c.mem = nil
	}
}

// MemoryUsed reports the bytes currently charged against the query budget
// (0 when no limit is set).
func (c *Context) MemoryUsed() int64 {
	if c == nil || c.mem == nil {
		return 0
	}
	return c.mem.used.Load()
}

// PeakBytes reports the high-water mark of bytes charged against the query
// budget (0 when neither a memory limit nor stats collection armed the
// accountant).
func (c *Context) PeakBytes() int64 {
	if c == nil || c.mem == nil {
		return 0
	}
	return c.mem.peak.Load()
}

// charge books n bytes against the query budget under the given operator
// label; nil-safe for contexts without a limit.
func (c *Context) charge(op string, n int64) error {
	if c == nil {
		return nil
	}
	return c.mem.charge(op, n)
}

// release returns n bytes to the query budget.
func (c *Context) release(n int64) {
	if c != nil && c.mem != nil {
		c.mem.release(n)
	}
}

// batchBytes estimates the resident size of a batch: fixed-width payloads
// by type, string payloads by length plus header, one byte per row for a
// null bitmap when present.
func batchBytes(b *types.Batch) int64 {
	if b == nil {
		return 0
	}
	var n int64
	for _, c := range b.Cols {
		n += columnBytes(c, b.Len())
	}
	return n
}

// columnBytes is batchBytes of one column of a batch of rows rows.
func columnBytes(c *types.Column, rows int) int64 {
	var n int64
	switch c.T {
	case types.Int64, types.Float64:
		n = int64(rows) * 8
	case types.Bool:
		n = int64(rows)
	case types.String:
		strs := c.Strs
		if len(strs) > rows {
			strs = strs[:rows]
		}
		n = int64(len(strs)) * 16
		for _, s := range strs {
			n += int64(len(s))
		}
	}
	if c.Nulls != nil {
		n += int64(rows)
	}
	return n
}

// matBytes estimates the resident size of a materialized relation.
func matBytes(m *Materialized) int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, b := range m.Batches {
		n += batchBytes(b)
	}
	return n
}

// scratch is an owner's reusable buffers — an operator's own and its
// evaluators' inner nodes', or one sink's — booked against the query
// budget under label as they grow: once per owner, not once per batch.
// Whoever drops the owner releases them.
type scratch struct {
	types.Scratch
	ctx     *Context
	label   string
	charged int64
}

// book charges what the buffers grew by since the last call.
func (s *scratch) book() error {
	n := s.Bytes() - s.charged
	if n <= 0 {
		return nil
	}
	if err := s.ctx.charge(s.label, n); err != nil {
		return err
	}
	s.charged += n
	return nil
}

// release poisons the buffers, whose last loan ends here, and returns their
// bytes to the budget.
func (s *scratch) release() {
	s.Poison()
	s.ctx.release(s.charged)
	s.charged = 0
}
