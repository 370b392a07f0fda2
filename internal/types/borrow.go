package types

import (
	"math"
	"testing"
	"unsafe"
)

// Borrowing. A batch a producer hands out — from an operator's Next, a
// storage cursor's Next, a sink's consume — is borrowed: it is valid until
// the producer's next call or its Close. A producer may write each call's
// result into the same storage. It marks such a column Reused, and a batch
// whose header it rewrites Reused too. A consumer that keeps a batch past
// the borrow calls Retain, which copies exactly the reused parts. A
// selection (Batch.Sel) is borrowed the same way: it is valid until the
// producer's next call, and Retain materialises it.
//
// In test binaries a producer poisons what it lent before it reuses the
// storage, and an operator also on Close: floats become NaN, integers
// MinInt64, strings PoisonString, booleans and NULL bitmaps true. A keeper
// that bypasses Retain then reads poison instead of plausible data.

// poisoning is on in test binaries only.
var poisoning = testing.Testing()

// PoisonString is what a poisoned string column holds.
const PoisonString = "\x00poisoned"

// Retain returns b in a form that outlives the borrow: b itself when none of
// it is reused storage, else a new header whose Reused columns are copies.
// Storage views and fresh columns are kept as they are. A batch with a
// selection comes back as fresh columns of its selected rows.
func Retain(b *Batch) *Batch {
	if b.Sel != nil {
		return b.Gather(b.Sel)
	}
	reused := b.Reused
	for _, c := range b.Cols {
		reused = reused || c.Reused
	}
	if !reused {
		return b
	}
	out := &Batch{Schema: b.Schema, Cols: make([]*Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c
		if c.Reused {
			out.Cols[j] = c.clone()
		}
	}
	return out
}

// clone returns a fresh copy of c.
func (c *Column) clone() *Column {
	out := &Column{T: c.T}
	switch c.T {
	case Int64:
		out.Ints = append([]int64(nil), c.Ints...)
	case Float64:
		out.Floats = append([]float64(nil), c.Floats...)
	case String:
		out.Strs = append([]string(nil), c.Strs...)
	case Bool:
		out.Bools = append([]bool(nil), c.Bools...)
	}
	if c.Nulls != nil {
		out.Nulls = append([]bool(nil), c.Nulls[:c.Len()]...)
	}
	return out
}

// Buffer is one reusable output column of a producer: an operator, a
// storage cursor, an inner expression node. Each result is written into the
// same storage and lent marked Reused.
type Buffer struct {
	col   Column
	nulls []bool // the bitmap the buffer owns; col.Nulls may share an input's instead
	pool  *Scratch
}

// Reset starts the next result, n rows of type t without NULLs, and returns
// it; the data it holds is the caller's to overwrite. The previous result is
// poisoned first.
func (b *Buffer) Reset(t Type, n int) *Column {
	b.Poison()
	c := &b.col
	if c.T != t {
		*c = Column{T: t}
	}
	c.Reused, c.Nulls = true, nil
	switch t {
	case Int64:
		c.Ints = resize(b.pool, c.Ints, n)
	case Float64:
		c.Floats = resize(b.pool, c.Floats, n)
	case String:
		c.Strs = resize(b.pool, c.Strs, n)
	case Bool:
		c.Bools = resize(b.pool, c.Bools, n)
	default:
		// An untyped column is as long as its bitmap.
		b.Nulls(n)
	}
	return c
}

// Nulls gives the current result the buffer's own NULL bitmap of n entries,
// for the caller to fill, and returns it.
func (b *Buffer) Nulls(n int) []bool {
	b.nulls = resize(b.pool, b.nulls, n)
	b.col.Nulls = b.nulls
	return b.nulls
}

// Gather sets the buffer to the rows of c selected by idx.
func (b *Buffer) Gather(c *Column, idx []int) *Column {
	out := b.Reset(c.T, len(idx))
	if c.Nulls != nil {
		b.Nulls(len(idx))
	}
	gatherInto(out, c, idx)
	return out
}

// Const sets the buffer to n copies of v (see ConstColumn).
func (b *Buffer) Const(v Value, n int) *Column {
	out := b.Reset(v.T, n)
	switch v.T {
	case Int64:
		setAll(out.Ints, v.I)
	case Float64:
		setAll(out.Floats, v.F)
	case String:
		setAll(out.Strs, v.S)
	case Bool:
		setAll(out.Bools, v.B)
	}
	if v.Null {
		setAll(b.Nulls(n), true)
	}
	return out
}

// Poison overwrites the storage the buffer lent, in test binaries; outside
// them it does nothing.
func (b *Buffer) Poison() {
	if !poisoning {
		return
	}
	c := &b.col
	setAll(c.Ints, math.MinInt64)
	setAll(c.Floats, math.NaN())
	setAll(c.Strs, PoisonString)
	setAll(c.Bools, true)
	setAll(b.nulls, true)
}

func setAll[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// resize returns s with length n, reallocating only when it is too small —
// then to at least twice its capacity, so that a buffer under results of
// growing length settles — and counts what it allocates in pool.
func resize[T any](pool *Scratch, s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	var zero T
	size := max(n, 2*cap(s))
	pool.add(int64(size-cap(s)) * int64(unsafe.Sizeof(zero)))
	return make([]T, n, size)
}

// Scratch is the pool an owner's Buffers come from — the buffers of one
// operator, or of one compiled expression — and the count of the bytes they
// hold, for the owner to book against a memory budget. Buffers are handed
// out in order; Rewind hands the same ones out again, to producers that
// replace the previous ones.
type Scratch struct {
	bufs  []*Buffer
	next  int
	bytes int64
}

// Buffer returns the pool's next Buffer. A nil pool returns a new Buffer
// that nothing counts.
func (s *Scratch) Buffer() *Buffer {
	if s == nil {
		return &Buffer{}
	}
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, &Buffer{pool: s})
	}
	b := s.bufs[s.next]
	s.next++
	return b
}

// Rewind makes Buffer hand out the pool's buffers from the first again.
func (s *Scratch) Rewind() { s.next = 0 }

// Bytes is what the pool's buffers hold, never less than at any earlier
// time. Nil-safe.
func (s *Scratch) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes
}

// Poison poisons every buffer of the pool (see Buffer.Poison).
func (s *Scratch) Poison() {
	if s != nil && poisoning {
		for _, b := range s.bufs {
			b.Poison()
		}
	}
}

func (s *Scratch) add(n int64) {
	if s != nil {
		s.bytes += n
	}
}
