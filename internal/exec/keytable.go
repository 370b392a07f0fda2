package exec

import "lambdadb/internal/types"

// keyTable is the one hash table under GROUP BY, hash join and the
// deduplicating operators: open addressing over typed key columns, mapping
// each distinct key tuple to a dense id in first-seen order. Key id lives in
// row id of cols, its hash in hashes[id]; slots holds id+1 under linear
// probing, 0 for empty. Equality runs on the typed arrays; an Int64 batch
// column under a Float64 key (BIGINT = DOUBLE) is widened once per batch, so
// 1 matches 1.0 as Value.Equal decides. nullsEqual is the caller's semantics:
// true groups NULL with NULL (GROUP BY, DISTINCT, UNION), false gives a key
// holding a NULL no id (equi-join). find only reads and may run concurrently.
//
// The table books its arrays against the query budget under label as it
// grows; the owner that drops it releases them.
type keyTable struct {
	ctx        *Context
	label      string
	nullsEqual bool
	cols       []*types.Column
	hashes     []uint64
	slots      []int32
	strBytes   int64 // string key payloads held in cols
	charged    int64
}

func newKeyTable(ctx *Context, label string, keyTypes []types.Type, nullsEqual bool) *keyTable {
	t := &keyTable{ctx: ctx, label: label, nullsEqual: nullsEqual,
		cols: make([]*types.Column, len(keyTypes)), slots: make([]int32, 16)}
	for i, kt := range keyTypes {
		t.cols[i] = types.NewColumn(kt, 0)
	}
	return t
}

// len is the number of distinct keys, and the next id.
func (t *keyTable) len() int { return len(t.hashes) }

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
// NULL key when NULLs never match.
func (t *keyTable) findOrAdd(keys []*types.Column, hashes []uint64, ids []int32) {
	t.resolve(keys, hashes, ids, true)
}
func (t *keyTable) find(keys []*types.Column, hashes []uint64, ids []int32) {
	t.resolve(keys, hashes, ids, false)
}

func (t *keyTable) resolve(keys []*types.Column, hashes []uint64, ids []int32, add bool) {
	keys = t.widen(keys)
	clear(ids[:len(hashes)])
	if !t.nullsEqual {
		for _, k := range keys {
			for i, null := range k.Nulls {
				if null {
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
	mask := uint64(len(t.slots) - 1)
	for i, h := range hashes {
		if ids[i] < 0 {
			continue
		}
		if add && 2*len(t.hashes) >= len(t.slots) {
			t.grow()
			mask = uint64(len(t.slots) - 1)
		}
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
// Float64 (a mixed-type join key), once per batch.
func (t *keyTable) widen(keys []*types.Column) []*types.Column {
	out := append([]*types.Column(nil), keys...)
	for c, k := range keys {
		if k.T == types.Int64 && t.cols[c].T == types.Float64 {
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
// one load and compare, small enough to inline into resolve's loop (a closure
// picked before the loop measured 10 % slower on BenchmarkHashAgg/int-key).
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

// grow doubles the slot array and re-inserts every id by its stored hash.
func (t *keyTable) grow() {
	if len(t.hashes) >= 1<<30 { // ids are int32
		panic("keyTable: more than 2^30 distinct keys")
	}
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		pos := h & mask
		for t.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		t.slots[pos] = int32(id) + 1
	}
}

// book charges what the table's arrays, plus extra bytes its owner keeps
// per key, have grown by since the last call.
func (t *keyTable) book(extra int64) error {
	held := extra + int64(cap(t.slots))*4 + int64(cap(t.hashes))*8 + t.strBytes
	for _, c := range t.cols {
		held += int64(cap(c.Ints)+cap(c.Floats))*8 + int64(cap(c.Strs))*16 + int64(cap(c.Bools)+cap(c.Nulls))
	}
	if err := t.ctx.charge(t.label, held-t.charged); err != nil {
		return err
	}
	if held > t.charged {
		t.charged = held
	}
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
	ids, idx := make([]int32, n), make([]int, 0, n)
	next := int32(t.len())
	t.findOrAdd(b.Cols, hashKeys(b.Cols, n, nil), ids)
	for i, id := range ids {
		if id == next { // the first row of a new key takes the next id
			idx = append(idx, i)
			next++
		}
	}
	if err := t.book(0); err != nil {
		return nil, err
	}
	if len(idx) == n {
		return b, nil
	}
	return b.Gather(idx), nil
}
