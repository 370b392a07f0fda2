package exec

import (
	"math"

	"lambdadb/internal/types"
)

// keyTable is the one key table under GROUP BY, hash join and the
// deduplicating operators, mapping each distinct key tuple to a dense id in
// first-seen order; key id lives in row id of cols. It addresses keys in one
// of two modes.
//
// Hashed: open addressing over the typed key columns. The hash of key id is
// in hashes[id]; slots holds id+1 under linear probing, 0 for empty.
// Equality runs on the typed arrays; an Int64 batch column under a Float64
// key (BIGINT = DOUBLE) is widened once per batch, so 1 matches 1.0 as
// Value.Equal decides.
//
// Dense: one BIGINT key column whose stored keys span at most
// max(denseFloor, 2 × keys) values is addressed directly — direct[key − lo]
// holds id+1, 0 for empty — with no hash, no probe loop and no equality
// check. A table with one BIGINT key starts dense. The first key that would
// break the rule switches it to hashing, once and in place: the stored keys
// are hashed and keep their ids, and the batch finishes hashed.
//
// nullsEqual is the caller's semantics: true groups NULL with NULL (GROUP
// BY, DISTINCT, UNION), false gives a key holding a NULL no id (equi-join).
// The table hashes its keys itself; find only reads and may run concurrently.
//
// The table books its arrays against the query budget under label as they
// grow or go; the owner that drops it releases them.
type keyTable struct {
	ctx        *Context
	label      string
	nullsEqual bool
	cols       []*types.Column
	// hash computes the row hashes of a batch's key columns: hashKeys, but
	// a test may put a worse function here.
	hash func(keys []*types.Column, n int, buf []uint64) []uint64

	// Hashed mode.
	hashes []uint64
	slots  []int32

	// Dense mode.
	dense    bool
	direct   []int32
	lo       int64 // the key direct[0] stands for
	min, max int64 // of the stored non-NULL keys; min > max while there are none
	nullID   int32 // id of the NULL key, -1 until it is stored

	buf      []uint64 // findOrAdd's batch hashes
	freshIDs []int32  // fresh's per-batch buffers
	freshIdx []int
	strBytes int64 // string key payloads held in cols
	charged  int64
}

const (
	// denseFloor is the key span a dense table may cover whatever the
	// number of keys (32 KB of direct array); above it the span may be at
	// most twice the number of keys.
	denseFloor = 1 << 13
	// maxDirect bounds the direct array, so that ids fit in int32.
	maxDirect = 1 << 30
)

func newKeyTable(ctx *Context, label string, keyTypes []types.Type, nullsEqual bool) *keyTable {
	t := &keyTable{ctx: ctx, label: label, nullsEqual: nullsEqual, hash: hashKeys, nullID: -1,
		cols: make([]*types.Column, len(keyTypes))}
	for i, kt := range keyTypes {
		t.cols[i] = types.NewColumn(kt, 0)
	}
	if len(keyTypes) == 1 && keyTypes[0] == types.Int64 {
		t.dense, t.min, t.max = true, math.MaxInt64, math.MinInt64
	} else {
		t.slots = make([]int32, 16)
	}
	return t
}

// len is the number of distinct keys, and the next id.
func (t *keyTable) len() int {
	if t.dense {
		return t.cols[0].Len()
	}
	return len(t.hashes)
}

// sized returns buf with length n, reallocating only when it is too small.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// hashKeys computes the row hashes of a batch's key columns into buf, the
// same values as Value.Hash folded by HashCombine.
func hashKeys(keys []*types.Column, n int, buf []uint64) []uint64 {
	buf = sized(buf, n)
	clear(buf)
	for _, k := range keys {
		types.HashColumn(k, buf)
	}
	return buf
}

// findOrAdd resolves every row's key to its id, adding unseen keys in row
// order; find only looks, giving -1 for an absent key. Both give -1 for a
// NULL key when NULLs never match. find keeps the batch's hashes, when the
// table needs them, in the caller's scratch, so that finds running
// concurrently share nothing.
func (t *keyTable) findOrAdd(keys []*types.Column, ids []int32) {
	t.resolve(keys, nil, &t.buf, ids, true)
}
func (t *keyTable) find(keys []*types.Column, ids []int32, scratch *[]uint64) {
	t.resolve(keys, nil, scratch, ids, false)
}

// merge adds the keys of o, another part's table over the same key types,
// and sets ids[g] to the id here of o's key g, reusing o's hashes when both
// tables hash.
func (t *keyTable) merge(o *keyTable, ids []int32) {
	var hashes []uint64
	if !o.dense {
		hashes = o.hashes
	}
	t.resolve(o.cols, hashes, &t.buf, ids, true)
}

// resolve sets ids for the rows of keys. A hashed table uses hashes when
// given, else computes them into scratch.
func (t *keyTable) resolve(keys []*types.Column, hashes []uint64, scratch *[]uint64, ids []int32, add bool) {
	from := 0
	if t.dense {
		if from = t.resolveDense(keys[0], ids, add); from == len(ids) {
			return
		}
	}
	keys = t.widen(keys)
	if hashes == nil {
		*scratch = t.hash(keys, len(ids), *scratch)
		hashes = *scratch
	}
	t.probe(keys, hashes, ids, from, add)
}

// resolveDense resolves rows by direct address and returns len(ids) — or,
// adding, the first row whose key would break the density rule, the table
// having switched to hashing there.
func (t *keyTable) resolveDense(k *types.Column, ids []int32, add bool) int {
	nulls, direct, lo := k.Nulls, t.direct, t.lo
	for i := range ids {
		if nulls != nil && nulls[i] {
			ids[i] = t.nullKey(add)
			continue
		}
		v := k.Ints[i]
		off := uint64(v) - uint64(lo)
		if off >= uint64(len(direct)) {
			if !add {
				ids[i] = -1
				continue
			}
			if !t.reach(k, i) {
				t.toHashed()
				return i
			}
			direct, lo = t.direct, t.lo
			off = uint64(v) - uint64(lo)
		}
		id := direct[off] - 1
		if id < 0 && add {
			id = int32(t.cols[0].Len())
			direct[off] = id + 1
			t.cols[0].AppendInt(v)
			t.min, t.max = min(t.min, v), max(t.max, v)
		}
		ids[i] = id
	}
	return len(ids)
}

// reach grows the direct array to cover key i of k, which lies outside it,
// and reports false when the density rule forbids that. It first tries to
// cover every key from row i on in one step, counting each of those rows as
// a new key — so the join's build side, added as one batch, is decided whole
// — and else key i alone. The array at least doubles each time, so a table
// comes here at most 32 times.
func (t *keyTable) reach(k *types.Column, i int) bool {
	mn, mx := t.min, t.max
	for j, v := range k.Ints[i:] {
		if k.Nulls == nil || !k.Nulls[i+j] {
			mn, mx = min(mn, v), max(mx, v)
		}
	}
	v := k.Ints[i]
	return t.place(mn, mx, t.len()+len(k.Ints)-i) || t.place(min(v, t.min), max(v, t.max), t.len()+1)
}

// place reallocates the direct array to cover [mn, mx], a range holding
// every stored key, and reports true — unless the range spans more than
// max(denseFloor, 2 × keys) values. The array at least doubles, its slack on
// the side the keys grew towards, and never reaches past either end of
// int64.
func (t *keyTable) place(mn, mx int64, keys int) bool {
	span := uint64(mx) - uint64(mn) // one less than the values it spans
	if span >= uint64(max(denseFloor, 2*keys)) || span >= maxDirect {
		return false
	}
	size := max(int(span)+1, min(2*len(t.direct), maxDirect))
	reach := uint64(size - 1)
	lo := mn
	switch {
	case t.min <= t.max && mn < t.min: // growing downwards
		lo = math.MinInt64
		if uint64(mx)-uint64(lo) >= reach {
			lo = mx - int64(reach)
		}
	case uint64(math.MaxInt64)-uint64(mn) < reach:
		lo = math.MaxInt64 - int64(reach)
	}
	direct := make([]int32, size)
	if t.min <= t.max {
		copy(direct[uint64(t.min)-uint64(lo):], t.direct[uint64(t.min)-uint64(t.lo):uint64(t.max)-uint64(t.lo)+1])
	}
	t.direct, t.lo = direct, lo
	return true
}

// nullKey is the id of the NULL key in a dense table, stored on first sight
// when adding; -1 when NULLs never match.
func (t *keyTable) nullKey(add bool) int32 {
	if !t.nullsEqual {
		return -1
	}
	if t.nullID < 0 && add {
		t.nullID = int32(t.cols[0].Len())
		t.cols[0].AppendNull()
	}
	return t.nullID
}

// toHashed switches a dense table to hashing: the stored keys are hashed
// once and slotted under the ids they have.
func (t *keyTable) toHashed() {
	n := t.len()
	t.dense, t.direct = false, nil
	t.hashes = t.hash(t.cols, n, nil)
	size := 16
	for 2*n >= size {
		size *= 2
	}
	t.rehash(size)
}

// probe resolves rows from..len(ids) of a hashed table.
func (t *keyTable) probe(keys []*types.Column, hashes []uint64, ids []int32, from int, add bool) {
	clear(ids[from:])
	if !t.nullsEqual {
		for _, k := range keys {
			if k.Nulls == nil {
				continue
			}
			for i := from; i < len(ids); i++ {
				if k.Nulls[i] {
					ids[i] = -1
				}
			}
		}
	}
	// One BIGINT key without NULLs on either side, the common case, is
	// compared as such (see same); decided once per batch.
	var ints []int64
	if len(keys) == 1 && keys[0].T == types.Int64 && t.cols[0].T == types.Int64 &&
		keys[0].Nulls == nil && t.cols[0].Nulls == nil {
		ints = keys[0].Ints
	}
	hashes = hashes[:len(ids)]
	mask := uint64(len(t.slots) - 1)
	for i := from; i < len(ids); i++ {
		if ids[i] < 0 {
			continue
		}
		if add && 2*len(t.hashes) >= len(t.slots) {
			t.grow()
			mask = uint64(len(t.slots) - 1)
		}
		h := hashes[i]
		pos := h & mask
		for {
			id := t.slots[pos] - 1
			if id < 0 {
				if add {
					id = int32(len(t.hashes))
					t.slots[pos] = id + 1
					t.hashes = append(t.hashes, h)
					t.appendKey(keys, i)
				}
				ids[i] = id
				break
			}
			if t.hashes[id] == h && t.same(ints, keys, i, id) {
				ids[i] = id
				break
			}
			pos = (pos + 1) & mask
		}
	}
}

// widen converts the Int64 columns of a batch's keys whose table column is
// Float64 (a mixed-type join key), once per batch; keys come back as they
// are when none is.
func (t *keyTable) widen(keys []*types.Column) []*types.Column {
	out, copied := keys, false
	for c, k := range keys {
		if k.T == types.Int64 && t.cols[c].T == types.Float64 {
			if !copied {
				out, copied = append([]*types.Column(nil), keys...), true
			}
			out[c] = &types.Column{T: types.Float64, Floats: make([]float64, len(k.Ints)), Nulls: k.Nulls}
			for i, v := range k.Ints {
				out[c].Floats[i] = float64(v)
			}
		}
	}
	return out
}

// same reports whether row i of keys holds stored key id. ints, when not nil,
// is the batch's only key column and BIGINT without NULLs, like the table's:
// one load and compare, small enough to inline into probe's loop (a closure
// picked before the loop measured 10 % slower on a hashed BIGINT key).
func (t *keyTable) same(ints []int64, keys []*types.Column, i int, id int32) bool {
	if ints != nil {
		return ints[i] == t.cols[0].Ints[id]
	}
	return t.equal(keys, i, int(id))
}

// equal compares row i of keys with stored key id.
func (t *keyTable) equal(keys []*types.Column, i, id int) bool {
	for c, k := range keys {
		col := t.cols[c]
		switch kn, cn := k.IsNull(i), col.IsNull(id); {
		case kn || cn:
			if kn != cn {
				return false
			}
		case col.T == types.Int64 && k.Ints[i] != col.Ints[id],
			col.T == types.Float64 && k.Floats[i] != col.Floats[id],
			col.T == types.String && k.Strs[i] != col.Strs[id],
			col.T == types.Bool && k.Bools[i] != col.Bools[id]:
			return false
		}
	}
	return true
}

// appendKey stores row i of keys as the next id.
func (t *keyTable) appendKey(keys []*types.Column, i int) {
	for c, k := range keys {
		col := t.cols[c]
		switch {
		case k.IsNull(i):
			col.AppendNull()
		case col.T == types.Int64:
			col.AppendInt(k.Ints[i])
		case col.T == types.Float64:
			col.AppendFloat(k.Floats[i])
		case col.T == types.String:
			col.AppendString(k.Strs[i])
			t.strBytes += int64(len(k.Strs[i]))
		case col.T == types.Bool:
			col.AppendBool(k.Bools[i])
		}
	}
}

// grow doubles the slot array.
func (t *keyTable) grow() {
	if len(t.hashes) >= 1<<30 { // ids are int32
		panic("keyTable: more than 2^30 distinct keys")
	}
	t.rehash(2 * len(t.slots))
}

// rehash re-inserts every id by its stored hash into size slots.
func (t *keyTable) rehash(size int) {
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id, h := range t.hashes {
		pos := h & mask
		for t.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		t.slots[pos] = int32(id) + 1
	}
}

// book brings what is charged to the budget to what the table's arrays, plus
// extra bytes its owner keeps per key, hold now: a charge as they grow, a
// release when a dense table's direct array goes.
func (t *keyTable) book(extra int64) error {
	held := extra + int64(cap(t.slots)+cap(t.direct))*4 + int64(cap(t.hashes))*8 + t.strBytes
	for _, c := range t.cols {
		held += int64(cap(c.Ints)+cap(c.Floats))*8 + int64(cap(c.Strs))*16 + int64(cap(c.Bools)+cap(c.Nulls))
	}
	if held < t.charged {
		t.ctx.release(t.charged - held)
	} else if err := t.ctx.charge(t.label, held-t.charged); err != nil {
		return err
	}
	t.charged = held
	return nil
}

// release returns everything booked. Nil-safe and idempotent.
func (t *keyTable) release() {
	if t != nil {
		t.ctx.release(t.charged)
		t.charged = 0
	}
}

// newRowTable is the key table of the deduplicating operators (DISTINCT,
// UNION, recursive UNION): whole rows as keys, NULLs equal.
func newRowTable(ctx *Context, label string, schema types.Schema) *keyTable {
	keyTypes := make([]types.Type, len(schema))
	for i, c := range schema {
		keyTypes[i] = c.Type
	}
	return newKeyTable(ctx, label, keyTypes, true)
}

// fresh adds the rows of b and returns those not seen before, in order,
// booking the table's growth.
func (t *keyTable) fresh(b *types.Batch) (*types.Batch, error) {
	n := b.Len()
	t.freshIDs, t.freshIdx = sized(t.freshIDs, n), t.freshIdx[:0]
	next := int32(t.len())
	t.findOrAdd(b.Cols, t.freshIDs)
	for i, id := range t.freshIDs {
		if id == next { // the first row of a new key takes the next id
			t.freshIdx = append(t.freshIdx, i)
			next++
		}
	}
	if err := t.book(0); err != nil {
		return nil, err
	}
	if len(t.freshIdx) == n {
		return b, nil
	}
	return b.Gather(t.freshIdx), nil
}
