package types

import "fmt"

// Column is a typed vector of values. Exactly one of the data slices is
// populated, selected by T. Nulls is nil when the column contains no NULLs;
// otherwise it has one entry per row.
type Column struct {
	T      Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool
	// Reused marks a producer's Buffer: the column, its data and its NULL
	// bitmap are rewritten on the producer's next call (see Retain). A
	// column not marked Reused never shares storage with one that is.
	Reused bool
}

// NewColumn returns an empty column of type t with capacity cap.
func NewColumn(t Type, capacity int) *Column {
	c := &Column{T: t}
	switch t {
	case Int64:
		c.Ints = make([]int64, 0, capacity)
	case Float64:
		c.Floats = make([]float64, 0, capacity)
	case String:
		c.Strs = make([]string, 0, capacity)
	case Bool:
		c.Bools = make([]bool, 0, capacity)
	}
	return c
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.T {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	case String:
		return len(c.Strs)
	case Bool:
		return len(c.Bools)
	}
	// Unknown-typed columns (all-NULL literals) track length through the
	// null bitmap only.
	return len(c.Nulls)
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.Nulls != nil && c.Nulls[i]
}

// Value returns row i as a scalar Value.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return NewNull(c.T)
	}
	switch c.T {
	case Int64:
		return NewInt(c.Ints[i])
	case Float64:
		return NewFloat(c.Floats[i])
	case String:
		return NewString(c.Strs[i])
	case Bool:
		return NewBool(c.Bools[i])
	}
	return Value{}
}

// Append adds a value to the column. The value must match the column type
// (numeric widening from Int64 to Float64 is performed).
func (c *Column) Append(v Value) {
	if v.Null {
		c.AppendNull()
		return
	}
	c.growNulls(false)
	switch c.T {
	case Int64:
		c.Ints = append(c.Ints, v.AsInt())
	case Float64:
		c.Floats = append(c.Floats, v.AsFloat())
	case String:
		c.Strs = append(c.Strs, v.S)
	case Bool:
		c.Bools = append(c.Bools, v.B)
	}
}

// AppendNull adds a NULL row.
func (c *Column) AppendNull() {
	c.growNulls(true)
	switch c.T {
	case Int64:
		c.Ints = append(c.Ints, 0)
	case Float64:
		c.Floats = append(c.Floats, 0)
	case String:
		c.Strs = append(c.Strs, "")
	case Bool:
		c.Bools = append(c.Bools, false)
	}
}

// AppendInt appends a non-null int64 (column must be Int64).
func (c *Column) AppendInt(v int64) {
	c.growNulls(false)
	c.Ints = append(c.Ints, v)
}

// AppendFloat appends a non-null float64 (column must be Float64).
func (c *Column) AppendFloat(v float64) {
	c.growNulls(false)
	c.Floats = append(c.Floats, v)
}

// AppendString appends a non-null string (column must be String).
func (c *Column) AppendString(v string) {
	c.growNulls(false)
	c.Strs = append(c.Strs, v)
}

// AppendBool appends a non-null bool (column must be Bool).
func (c *Column) AppendBool(v bool) {
	c.growNulls(false)
	c.Bools = append(c.Bools, v)
}

func (c *Column) growNulls(null bool) {
	if c.Nulls == nil {
		if !null {
			return
		}
		c.Nulls = make([]bool, c.Len(), c.Len()+1)
	}
	c.Nulls = append(c.Nulls, null)
}

// Slice returns a view of rows [lo, hi). The returned column shares storage
// with c, and so is Reused when c is; it must not be appended to.
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{T: c.T, Reused: c.Reused}
	switch c.T {
	case Int64:
		out.Ints = c.Ints[lo:hi]
	case Float64:
		out.Floats = c.Floats[lo:hi]
	case String:
		out.Strs = c.Strs[lo:hi]
	case Bool:
		out.Bools = c.Bools[lo:hi]
	}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi]
	}
	return out
}

// Gather returns a new column containing the rows of c selected by idx.
func (c *Column) Gather(idx []int) *Column {
	out := &Column{T: c.T}
	switch c.T {
	case Int64:
		out.Ints = make([]int64, len(idx))
	case Float64:
		out.Floats = make([]float64, len(idx))
	case String:
		out.Strs = make([]string, len(idx))
	case Bool:
		out.Bools = make([]bool, len(idx))
	}
	if c.Nulls != nil {
		out.Nulls = make([]bool, len(idx))
	}
	gatherInto(out, c, idx)
	return out
}

// gatherInto writes the rows of c selected by idx into out, whose slices
// have length len(idx) — a NULL bitmap exactly when c has one. The type
// dispatch happens once, outside the copy loop.
func gatherInto(out, c *Column, idx []int) {
	switch c.T {
	case Int64:
		for o, i := range idx {
			out.Ints[o] = c.Ints[i]
		}
	case Float64:
		for o, i := range idx {
			out.Floats[o] = c.Floats[i]
		}
	case String:
		for o, i := range idx {
			out.Strs[o] = c.Strs[i]
		}
	case Bool:
		for o, i := range idx {
			out.Bools[o] = c.Bools[i]
		}
	}
	if c.Nulls != nil {
		for o, i := range idx {
			out.Nulls[o] = c.Nulls[i]
		}
	}
}

// AppendColumn appends all rows of o (which must have the same type) to c,
// bulk-copying the backing slices.
func (c *Column) AppendColumn(o *Column) {
	oldLen := c.Len()
	n := o.Len()
	switch c.T {
	case Int64:
		c.Ints = append(c.Ints, o.Ints...)
	case Float64:
		c.Floats = append(c.Floats, o.Floats...)
	case String:
		c.Strs = append(c.Strs, o.Strs...)
	case Bool:
		c.Bools = append(c.Bools, o.Bools...)
	}
	switch {
	case c.Nulls == nil && o.Nulls == nil:
		// No bitmap needed.
	case c.Nulls == nil:
		c.Nulls = make([]bool, oldLen, oldLen+n)
		c.Nulls = append(c.Nulls, o.Nulls...)
	case o.Nulls == nil:
		c.Nulls = append(c.Nulls, make([]bool, n)...)
	default:
		c.Nulls = append(c.Nulls, o.Nulls...)
	}
}

// ConstColumn returns a column of n copies of v, filled a typed slice at a
// time: a NULL is an all-true bitmap over zeroed data.
func ConstColumn(v Value, n int) *Column {
	c := &Column{T: v.T}
	if v.Null {
		c.Nulls = fill(n, true)
		v = Value{T: v.T}
	}
	switch v.T {
	case Int64:
		c.Ints = fill(n, v.I)
	case Float64:
		c.Floats = fill(n, v.F)
	case String:
		c.Strs = fill(n, v.S)
	case Bool:
		c.Bools = fill(n, v.B)
	}
	return c
}

func fill[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// ColumnInfo describes one column of a schema.
type ColumnInfo struct {
	Name string
	Type Type
}

// Schema is an ordered list of column descriptions.
type Schema []ColumnInfo

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Equal reports whether two schemas have identical names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name TYPE, ...)".
func (s Schema) String() string {
	out := "("
	for i, c := range s {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %s", c.Name, c.Type)
	}
	return out + ")"
}

// Batch is a horizontal slice of rows flowing between operators.
// All columns have the same length.
type Batch struct {
	Schema Schema
	Cols   []*Column
	// Sel, when not nil, selects the batch's rows: ascending positions into
	// Cols, which keep the rows around them. It is borrowed like the batch
	// (see Retain). Only a consumer that says it reads selections is handed
	// one. Len and Retain know of it; every other method addresses the
	// positions of Cols.
	Sel []int
	// Reused marks a header — this struct, Cols and Sel — that its producer
	// rewrites on its next call (see Retain).
	Reused bool
}

// BatchSize is the default number of rows per batch.
const BatchSize = 1024

// NewBatch returns an empty batch with one empty column per schema entry.
func NewBatch(schema Schema) *Batch {
	b := &Batch{Schema: schema, Cols: make([]*Column, len(schema))}
	for i, c := range schema {
		b.Cols[i] = NewColumn(c.Type, BatchSize)
	}
	return b
}

// Len returns the number of rows in the batch: the selected ones when it
// has a selection.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Row materializes row i as a slice of scalar values.
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Cols))
	for j, c := range b.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// AppendRow appends a row of scalar values.
func (b *Batch) AppendRow(row []Value) {
	for j, c := range b.Cols {
		c.Append(row[j])
	}
}

// Gather returns a new batch with rows selected by idx.
func (b *Batch) Gather(idx []int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]*Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c.Gather(idx)
	}
	return out
}

// Slice returns a view batch of rows [lo, hi).
func (b *Batch) Slice(lo, hi int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]*Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c.Slice(lo, hi)
	}
	return out
}
