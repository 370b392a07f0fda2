package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lambdadb/internal/types"
)

// ---------------------------------------------------------------------------
// The oracle: the three map-based tables keyTable replaced — aggregation's
// aggHash, the join's hashTable and DISTINCT/UNION's rowSet — as they stood,
// boxing every key into a types.Value. They define what groups, join pairs
// and first-seen order are; keyTable must reproduce them exactly.
// ---------------------------------------------------------------------------

type oracleGroup struct{ keys []types.Value }

type oracleAggHash struct {
	buckets map[uint64][]int // group indexes
	groups  []oracleGroup    // insertion order
}

func oracleRowHash(keys []types.Value) uint64 {
	var hv uint64
	for _, k := range keys {
		if k.Null {
			hv = types.HashCombine(hv, 0x9e3779b97f4a7c15)
		} else {
			hv = types.HashCombine(hv, k.Hash())
		}
	}
	return hv
}

// lookup returns the index of the group for the given key row, creating it
// on demand.
func (h *oracleAggHash) lookup(keys []types.Value) int {
	hv := oracleRowHash(keys)
	for _, g := range h.buckets[hv] {
		if oracleGroupKeysEqual(h.groups[g].keys, keys) {
			return g
		}
	}
	h.groups = append(h.groups, oracleGroup{keys: append([]types.Value{}, keys...)})
	h.buckets[hv] = append(h.buckets[hv], len(h.groups)-1)
	return len(h.groups) - 1
}

// oracleGroupKeysEqual compares group keys with NULL = NULL.
func oracleGroupKeysEqual(a, b []types.Value) bool {
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

type oracleRowSet struct{ buckets map[uint64][][]types.Value }

// add inserts the row and reports whether it was new.
func (s *oracleRowSet) add(row []types.Value) bool {
	h := oracleRowHash(row)
	for _, existing := range s.buckets[h] {
		if oracleGroupKeysEqual(existing, row) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], append([]types.Value{}, row...))
	return true
}

// oracleHashTable is the join's chained table over one build batch; a NULL
// key never enters it.
type oracleHashTable struct {
	build   *types.Batch
	keyCols []int
	buckets map[uint64][]int // build rows, in row order
}

func oracleRowKeyHash(b *types.Batch, cols []int, i int) (uint64, bool) {
	var h uint64
	for _, c := range cols {
		col := b.Cols[c]
		if col.IsNull(i) {
			return 0, false
		}
		h = types.HashCombine(h, col.Value(i).Hash())
	}
	return h, true
}

func oracleKeysEqual(a *types.Batch, aCols []int, ai int, b *types.Batch, bCols []int, bi int) bool {
	for k := range aCols {
		if !a.Cols[aCols[k]].Value(ai).Equal(b.Cols[bCols[k]].Value(bi)) {
			return false
		}
	}
	return true
}

func newOracleHashTable(build *types.Batch, keyCols []int) *oracleHashTable {
	ht := &oracleHashTable{build: build, keyCols: keyCols, buckets: map[uint64][]int{}}
	for i := 0; i < build.Len(); i++ {
		if h, ok := oracleRowKeyHash(build, keyCols, i); ok {
			ht.buckets[h] = append(ht.buckets[h], i)
		}
	}
	return ht
}

// pairs probes one batch: (probe row, build row) in probe order, then build
// order.
func (ht *oracleHashTable) pairs(pb *types.Batch, probeKeys []int) (probeIdx, buildIdx []int) {
	for i := 0; i < pb.Len(); i++ {
		h, ok := oracleRowKeyHash(pb, probeKeys, i)
		if !ok {
			continue
		}
		for _, r := range ht.buckets[h] {
			if oracleKeysEqual(pb, probeKeys, i, ht.build, ht.keyCols, r) {
				probeIdx, buildIdx = append(probeIdx, i), append(buildIdx, r)
			}
		}
	}
	return probeIdx, buildIdx
}

// ---------------------------------------------------------------------------
// Random key columns
// ---------------------------------------------------------------------------

// Value pools small enough that keys repeat, and full of the values hashing
// and equality get wrong: the zeros, NaN (never equal to itself — every NaN
// key is its own group, today's behaviour), integers around 2^53 that
// collapse when widened to float64.
var (
	poolInts   = []int64{0, 1, -1, 2, 3, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64, math.MinInt64}
	poolFloats = []float64{0, math.Copysign(0, -1), 1, -1, 1.5, 2, 3, 1 << 53, 1<<53 + 2, math.NaN(), math.Inf(1)}
	poolStrs   = []string{"", "a", "b", "ab", "ba", "a\x00"}
)

// randColumn draws n rows of type t; wide spreads the values over
// thousands of distinct keys (so the table resizes several times), nullEvery
// > 0 makes about one row in nullEvery NULL.
func randColumn(rng *rand.Rand, t types.Type, n int, wide bool, nullEvery int) *types.Column {
	c := types.NewColumn(t, n)
	for i := 0; i < n; i++ {
		switch {
		case nullEvery > 0 && rng.Intn(nullEvery) == 0:
			c.AppendNull()
		case t == types.Int64 && wide:
			c.AppendInt(int64(rng.Intn(6000)))
		case t == types.Int64:
			c.AppendInt(poolInts[rng.Intn(len(poolInts))])
		case t == types.Float64 && wide:
			c.AppendFloat(float64(rng.Intn(6000)) / 2)
		case t == types.Float64:
			c.AppendFloat(poolFloats[rng.Intn(len(poolFloats))])
		case t == types.String && wide:
			c.AppendString(fmt.Sprint("k", rng.Intn(6000)))
		case t == types.String:
			c.AppendString(poolStrs[rng.Intn(len(poolStrs))])
		default:
			c.AppendBool(rng.Intn(2) == 0)
		}
	}
	return c
}

var keyTypePool = []types.Type{types.Int64, types.Float64, types.String, types.Bool}

func randKeyTypes(rng *rand.Rand) []types.Type {
	out := make([]types.Type, 1+rng.Intn(4))
	for i := range out {
		out[i] = keyTypePool[rng.Intn(len(keyTypePool))]
	}
	return out
}

func randBatch(rng *rand.Rand, ts []types.Type, n int, wide bool, nullEvery int) *types.Batch {
	b := &types.Batch{Schema: make(types.Schema, len(ts)), Cols: make([]*types.Column, len(ts))}
	for c, t := range ts {
		b.Schema[c] = types.ColumnInfo{Name: fmt.Sprint("c", c), Type: t}
		b.Cols[c] = randColumn(rng, t, n, wide, nullEvery)
	}
	return b
}

// degenerate is the worst hash function: every row collides with every
// other, so only equality tells keys apart.
func degenerate(_ []*types.Column, n int, buf []uint64) []uint64 {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

// inMode returns t as newKeyTable made it (hashed false) or switched to
// hashing before its first key, so that a test covers both modes.
func inMode(t *keyTable, hashed bool) *keyTable {
	if hashed && t.dense {
		t.toHashed()
	}
	return t
}

// sameValue is equality for checking stored keys: NULL equals NULL, floats
// by bits except that the zeros are one key (either may be the one stored).
func sameValue(a, b types.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.T == types.Float64 && a.F == 0 && b.F == 0 {
		return true
	}
	return a.T == b.T && a.I == b.I && a.S == b.S && a.B == b.B && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// ---------------------------------------------------------------------------
// Differential tests
// ---------------------------------------------------------------------------

// TestKeyTableGroupsLikeOracle: findOrAdd hands out the ids aggHash.lookup
// handed out group indexes — same groups, same first-seen order — over
// random batches of 1–4 key columns of every type, with NULLs anywhere, both
// narrow (special values, many repeats) and wide (thousands of keys, so the
// slot array doubles many times), under the real hash and the degenerate one,
// in both of the table's modes.
func TestKeyTableGroupsLikeOracle(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ts := randKeyTypes(rng)
			wide, nullEvery, degenerateHash := seed%4 == 3, []int{0, 3, 10}[seed%3], seed%8 >= 4
			if wide {
				ts[0] = types.Int64 // BOOLEAN columns alone make three keys
			}
			oracle := &oracleAggHash{buckets: map[uint64][]int{}}
			table := inMode(newKeyTable(nil, "test", ts, true), hashed)
			if degenerateHash {
				table.hash = degenerate
			}
			for batch := 0; batch < 6; batch++ {
				n := 1 + rng.Intn(1500)
				if wide && degenerateHash {
					n = 1 + rng.Intn(150) // all-collide probing is quadratic
				}
				b := randBatch(rng, ts, n, wide, nullEvery)
				ids := make([]int32, n)
				table.findOrAdd(b.Cols, ids)
				for i := 0; i < n; i++ {
					if want := oracle.lookup(b.Row(i)); int(ids[i]) != want {
						t.Fatalf("seed %d types %v batch %d row %d %v: id %d, oracle group %d",
							seed, ts, batch, i, b.Row(i), ids[i], want)
					}
				}
				// find sees exactly what findOrAdd stored — except a NaN key,
				// which equals nothing, itself included.
				again := make([]int32, n)
				table.find(b.Cols, again, new([]uint64))
				for i := range again {
					if hasNaN(b.Row(i)) {
						if again[i] != -1 {
							t.Fatalf("seed %d row %d %v: find matched a NaN key (id %d)", seed, i, b.Row(i), again[i])
						}
					} else if again[i] != ids[i] {
						t.Fatalf("seed %d row %d %v: find gives %d after findOrAdd gave %d", seed, i, b.Row(i), again[i], ids[i])
					}
				}
			}
			if table.len() != len(oracle.groups) {
				t.Fatalf("seed %d: %d keys, oracle has %d groups", seed, table.len(), len(oracle.groups))
			}
			for g, og := range oracle.groups {
				for c := range ts {
					if got := table.cols[c].Value(g); !sameValue(got, og.keys[c]) {
						t.Fatalf("seed %d: stored key %d column %d = %v, oracle %v", seed, g, c, got, og.keys[c])
					}
				}
			}
			if wide && !degenerateHash && table.len() < 1000 {
				t.Fatalf("seed %d: only %d keys, the growth path was not exercised", seed, table.len())
			}
		}
	}
}

// TestKeyTableIntFastPathMatchesOracle pins resolve's compare for one BIGINT
// key without NULLs: the same table is fed batches with and without NULLs in
// turn, so it enters the fast path, leaves it for good once a NULL key is
// stored, and must hand out the oracle's ids throughout — under the
// degenerate hash too, where nothing but the compare tells keys apart. As
// made, the table stays dense over the wide keys and switches to hashing
// mid-batch over the narrow ones (they include MinInt64 and MaxInt64).
func TestKeyTableIntFastPathMatchesOracle(t *testing.T) {
	ts := []types.Type{types.Int64}
	for _, hashed := range []bool{false, true} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			wide, degenerateHash := seed%2 == 0, seed%4 >= 2
			oracle := &oracleAggHash{buckets: map[uint64][]int{}}
			table := inMode(newKeyTable(nil, "test", ts, true), hashed)
			if degenerateHash {
				table.hash = degenerate
			}
			for batch, nullEvery := range []int{0, 0, 0, 5, 0, 5, 0} {
				n := 100 + rng.Intn(300) // enough rows that one in five NULL means some NULL
				b := randBatch(rng, ts, n, wide, nullEvery)
				if fast := batch < 3; fast != (b.Cols[0].Nulls == nil && table.cols[0].Nulls == nil) {
					t.Fatalf("seed %d batch %d: on the fast path: %v, want %v", seed, batch, !fast, fast)
				}
				ids, again := make([]int32, n), make([]int32, n)
				table.findOrAdd(b.Cols, ids)
				table.find(b.Cols, again, new([]uint64))
				for i := 0; i < n; i++ {
					if want := oracle.lookup(b.Row(i)); int(ids[i]) != want || int(again[i]) != want {
						t.Fatalf("seed %d batch %d row %d %v: findOrAdd %d, find %d, oracle group %d",
							seed, batch, i, b.Row(i), ids[i], again[i], want)
					}
				}
			}
			if dense := !hashed && wide; table.dense != dense {
				t.Fatalf("seed %d hashed %v: dense at the end: %v, want %v", seed, hashed, table.dense, dense)
			}
		}
	}
}

func hasNaN(row []types.Value) bool {
	for _, v := range row {
		if !v.Null && v.T == types.Float64 && math.IsNaN(v.F) {
			return true
		}
	}
	return false
}

// TestDedupLikeOracle: keyTable.fresh passes on exactly the rows rowSet.add
// called new, in order, in both of the table's modes.
func TestDedupLikeOracle(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		for seed := int64(0); seed < 24; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			ts := randKeyTypes(rng)
			wide, nullEvery := seed%4 == 3, []int{0, 4}[seed%2]
			oracle := &oracleRowSet{buckets: map[uint64][][]types.Value{}}
			var schema types.Schema
			var d *keyTable
			for batch := 0; batch < 5; batch++ {
				b := randBatch(rng, ts, 1+rng.Intn(1200), wide, nullEvery)
				if d == nil {
					schema = b.Schema
					d = inMode(newRowTable(nil, "test", schema), hashed)
				}
				var want [][]types.Value
				for i := 0; i < b.Len(); i++ {
					if row := b.Row(i); oracle.add(row) {
						want = append(want, row)
					}
				}
				out, err := d.fresh(b)
				if err != nil {
					t.Fatal(err)
				}
				if out.Len() != len(want) {
					t.Fatalf("seed %d batch %d: %d fresh rows, oracle %d", seed, batch, out.Len(), len(want))
				}
				for i, w := range want {
					for c, v := range out.Row(i) {
						if !sameValue(v, w[c]) {
							t.Fatalf("seed %d batch %d fresh row %d: %v, oracle %v", seed, batch, i, out.Row(i), w)
						}
					}
				}
			}
		}
	}
}

// TestJoinTableMatchesOracle: build + probe produce the oracle's (probe row,
// build row) pairs in the oracle's order, for every pairing of key types the
// planner allows — same type on both sides, or BIGINT against DOUBLE either
// way round (compared as DOUBLE: 2^53+1 = 2^53.0) — with NULL keys on both
// sides, 1–3 key columns, the build side split over several batches. A
// table built dense is probed once more after switching to hashing.
func TestJoinTableMatchesOracle(t *testing.T) {
	pairsOf := [][2]types.Type{
		{types.Int64, types.Int64}, {types.Float64, types.Float64}, {types.Int64, types.Float64},
		{types.Float64, types.Int64}, {types.String, types.String}, {types.Bool, types.Bool},
	}
	denseBuilds := 0
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		nKeys := 1 + rng.Intn(3)
		wide, nullEvery := seed%8 >= 6, []int{0, 5}[seed%2]
		buildTypes, probeTypes, keyTypes := make([]types.Type, nKeys+1), make([]types.Type, nKeys+1), make([]types.Type, nKeys)
		keyCols := make([]int, nKeys)
		for k := 0; k < nKeys; k++ {
			p := pairsOf[rng.Intn(len(pairsOf))]
			if k == 0 {
				p = pairsOf[int(seed)%len(pairsOf)] // every pairing leads at least eight seeds
			}
			buildTypes[k], probeTypes[k], keyCols[k] = p[0], p[1], k
			if keyTypes[k] = p[0]; p[0] != p[1] {
				keyTypes[k] = types.Float64
			}
		}
		buildTypes[nKeys], probeTypes[nKeys] = types.Int64, types.Int64 // a payload column
		mat := &Materialized{}
		for batch, batches := 0, 1+rng.Intn(4); batch < batches; batch++ {
			b := randBatch(rng, buildTypes, 1+rng.Intn(800), wide, nullEvery)
			mat.Schema = b.Schema
			mat.Append(b)
		}
		jt, err := buildJoinTable(mat, keyCols, keyTypes, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newOracleHashTable(flatten(mat), keyCols)
		if jt.keys.dense {
			denseBuilds++
		}
		for batch := 0; batch < 3; batch++ {
			if batch == 2 && jt.keys.dense {
				jt.keys.toHashed()
			}
			pb := randBatch(rng, probeTypes, 1+rng.Intn(800), wide, nullEvery)
			keys := pickCols(pb, keyCols)
			ids := make([]int32, pb.Len())
			gotP, gotB := jt.match(keys, ids, new([]uint64), nil, nil)
			wantP, wantB := oracle.pairs(pb, keyCols)
			if fmt.Sprint(gotP, gotB) != fmt.Sprint(wantP, wantB) {
				t.Fatalf("seed %d build %v probe %v: %d pairs, oracle %d; first difference at %d",
					seed, buildTypes[:nKeys], probeTypes[:nKeys], len(gotP), len(wantP), firstDiff(gotP, gotB, wantP, wantB))
			}
			// The same lookups when every key collides: find alone, against
			// a table filled under the degenerate hash.
			slow := inMode(newKeyTable(nil, "test", keyTypes, false), true)
			slow.hash = degenerate
			build := flatten(mat)
			if build.Len() > 300 {
				build = build.Slice(0, 300)
			}
			buildIDs := make([]int32, build.Len())
			slow.findOrAdd(pickCols(build, keyCols), buildIDs)
			slow.find(keys, ids, new([]uint64))
			o := newOracleHashTable(build, keyCols)
			wantP, wantB = o.pairs(pb, keyCols)
			want := make([]int32, pb.Len())
			for i := range want {
				want[i] = -1
			}
			for k := len(wantP) - 1; k >= 0; k-- {
				want[wantP[k]] = buildIDs[wantB[k]] // every partner of a probe row holds the same key
			}
			for i := range want {
				if ids[i] != want[i] {
					t.Fatalf("seed %d degenerate hash, probe row %d %v: id %d, oracle %d", seed, i, pb.Row(i), ids[i], want[i])
				}
			}
		}
	}
	if denseBuilds == 0 {
		t.Fatal("no build side went dense; the direct-address mode was not exercised")
	}
}

func firstDiff(gp, gb, wp, wb []int) int {
	for i := range gp {
		if i >= len(wp) || gp[i] != wp[i] || gb[i] != wb[i] {
			return i
		}
	}
	return len(gp)
}

// TestJoinKeysPast2To53: the case the random pools only brush — BIGINT build
// keys that differ as integers but not as doubles all join the one DOUBLE
// probe key they widen to, and as BIGINT = BIGINT they stay apart.
func TestJoinKeysPast2To53(t *testing.T) {
	ints := &types.Column{T: types.Int64, Ints: []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, 7}}
	build := &types.Batch{Schema: types.Schema{{Name: "k", Type: types.Int64}}, Cols: []*types.Column{ints}}
	mat := &Materialized{Schema: build.Schema}
	mat.Append(build)
	probeF := []*types.Column{{T: types.Float64, Floats: []float64{1 << 53, 1<<53 + 2, 7, 7.5}}}
	jt, err := buildJoinTable(mat, []int{0}, []types.Type{types.Float64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jt.keys.dense {
		t.Error("a BIGINT = DOUBLE join key is a DOUBLE column and must stay hashed")
	}
	p, b := jt.match(probeF, make([]int32, 4), new([]uint64), nil, nil)
	if got, want := fmt.Sprint(p, b), "[0 0 1 2] [0 1 2 3]"; got != want {
		t.Errorf("BIGINT build, DOUBLE probe: pairs %s, want %s", got, want)
	}
	probeI := []*types.Column{{T: types.Int64, Ints: []int64{1<<53 + 1, 1 << 53, 8}}}
	if jt, err = buildJoinTable(mat, []int{0}, []types.Type{types.Int64}, nil); err != nil {
		t.Fatal(err)
	}
	p, b = jt.match(probeI, make([]int32, 3), new([]uint64), nil, nil)
	if got, want := fmt.Sprint(p, b), "[0 1] [1 0]"; got != want {
		t.Errorf("BIGINT build, BIGINT probe: pairs %s, want %s", got, want)
	}
}

// TestHashColumnMatchesValueHash: the column-at-a-time hash is Value.Hash
// row by row, folded with HashCombine — so 1 and 1.0 collide, -0.0 hashes as
// +0.0 and NULL as NULL, whatever a NULL row's slot holds.
func TestHashColumnMatchesValueHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ts := range [][]types.Type{{types.Int64}, {types.Float64}, {types.String}, {types.Bool},
		{types.Int64, types.Float64, types.String, types.Bool}} {
		b := randBatch(rng, ts, 500, false, 4)
		got := hashKeys(b.Cols, b.Len(), nil)
		for i := range got {
			if want := oracleRowHash(b.Row(i)); got[i] != want {
				t.Fatalf("types %v row %d %v: hash %#x, Value.Hash gives %#x", ts, i, b.Row(i), got[i], want)
			}
		}
	}
	one := hashKeys([]*types.Column{{T: types.Int64, Ints: []int64{1, 0}}}, 2, nil)
	oneF := hashKeys([]*types.Column{{T: types.Float64, Floats: []float64{1, math.Copysign(0, -1)}}}, 2, nil)
	if one[0] != oneF[0] || one[1] != oneF[1] {
		t.Errorf("1 / 1.0 hash %#x / %#x, 0 / -0.0 hash %#x / %#x: each pair must collide", one[0], oneF[0], one[1], oneF[1])
	}
	unknown := hashKeys([]*types.Column{{Nulls: []bool{true}}}, 1, nil)
	if want := oracleRowHash([]types.Value{types.NewNull(types.Unknown)}); unknown[0] != want {
		t.Errorf("untyped NULL column hashes %#x, want %#x", unknown[0], want)
	}
}

// ---------------------------------------------------------------------------
// The direct-address mode
// ---------------------------------------------------------------------------

func intKeys(vals ...int64) []*types.Column {
	return []*types.Column{{T: types.Int64, Ints: vals}}
}

// resolveAll runs findOrAdd over keys and then find over probe, returning
// both id lists.
func resolveAll(table *keyTable, keys, probe []*types.Column) (added, found []int32) {
	added, found = make([]int32, keys[0].Len()), make([]int32, probe[0].Len())
	table.findOrAdd(keys, added)
	table.find(probe, found, new([]uint64))
	return added, found
}

// TestKeyTableSwitchesToHashingMidBatch: a key that breaks the density rule
// in the middle of a batch switches the table to hashing there; the ids
// handed out before it stay, and the rest of the batch and later batches
// continue in first-seen order.
func TestKeyTableSwitchesToHashingMidBatch(t *testing.T) {
	table := newKeyTable(nil, "test", []types.Type{types.Int64}, true)
	added, found := resolveAll(table, intKeys(5, 3, 5, 7), intKeys(7, 6, 3))
	if got := fmt.Sprint(added, found, table.dense); got != "[0 1 0 2] [2 -1 1] true" {
		t.Fatalf("dense batch: ids, find, dense = %s", got)
	}
	// 4, 3 and 6 lie in the array; 1<<40 fits it neither with the rest of
	// the batch nor alone, and breaks the rule.
	added, found = resolveAll(table, intKeys(4, 3, 6, 1<<40, 5, 1<<40, -9, 4), intKeys(1<<40, -9, 6, 8))
	if got := fmt.Sprint(added, found, table.dense); got != "[3 1 4 5 0 5 6 3] [5 6 4 -1] false" {
		t.Fatalf("switching batch: ids, find, dense = %s", got)
	}
	if got := fmt.Sprint(table.cols[0].Ints, len(table.hashes), table.direct == nil); got != "[5 3 7 4 6 1099511627776 -9] 7 true" {
		t.Fatalf("stored keys, hashes, direct gone = %s", got)
	}
	added, _ = resolveAll(table, intKeys(7, 2, -9), intKeys(0))
	if got := fmt.Sprint(added); got != "[2 7 6]" {
		t.Fatalf("after the switch: ids %s", got)
	}
}

// TestKeyTableDenseAtTheEndsOfInt64: the span arithmetic neither overflows
// nor wraps at the ends of int64. Keys next to MinInt64 or MaxInt64 stay
// dense, the array's slack clamped inside the range; the two together span
// all of int64 and switch the table to hashing.
func TestKeyTableDenseAtTheEndsOfInt64(t *testing.T) {
	for _, tc := range []struct {
		keys  []int64
		dense bool
	}{
		{[]int64{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64 - 1, math.MaxInt64}, true},
		{[]int64{math.MinInt64 + 2, math.MinInt64, math.MinInt64 + 2}, true},
		{[]int64{math.MaxInt64, math.MinInt64, math.MaxInt64, 0, math.MinInt64}, false},
		{[]int64{math.MinInt64, math.MaxInt64}, false},
		{[]int64{-1, 0, math.MaxInt64}, false},
	} {
		// Once as one batch (the array sized from its bounds), once a key at
		// a time (the array grown key by key).
		for _, perKey := range []bool{false, true} {
			table := newKeyTable(nil, "test", []types.Type{types.Int64}, false)
			oracle := &oracleAggHash{buckets: map[uint64][]int{}}
			batches := [][]int64{tc.keys}
			if perKey {
				batches = nil
				for _, k := range tc.keys {
					batches = append(batches, []int64{k})
				}
			}
			for _, keys := range batches {
				added, found := resolveAll(table, intKeys(keys...), intKeys(keys...))
				for i, k := range keys {
					if want := oracle.lookup([]types.Value{types.NewInt(k)}); int(added[i]) != want || int(found[i]) != want {
						t.Fatalf("keys %v per key %v: %d got id %d, find %d, oracle %d", tc.keys, perKey, k, added[i], found[i], want)
					}
				}
			}
			_, outside := resolveAll(table, intKeys(), intKeys(0, 1, math.MaxInt64-4, math.MinInt64+1))
			for i, id := range outside {
				if id >= 0 && table.cols[0].Ints[id] != []int64{0, 1, math.MaxInt64 - 4, math.MinInt64 + 1}[i] {
					t.Fatalf("keys %v per key %v: an absent key found id %d", tc.keys, perKey, id)
				}
			}
			if table.dense != tc.dense {
				t.Fatalf("keys %v per key %v: dense %v, want %v", tc.keys, perKey, table.dense, tc.dense)
			}
		}
	}
}

// TestKeyTableDenseNullGroup: with NULLs equal, NULL is one more key of a
// dense table, with its own first-seen id, found again before and after a
// switch to hashing; with NULLs never matching it gets no id.
func TestKeyTableDenseNullGroup(t *testing.T) {
	keys := []*types.Column{{T: types.Int64, Ints: []int64{0, 4, 0, 2, 0}, Nulls: []bool{true, false, true, false, false}}}
	grouping := newKeyTable(nil, "test", []types.Type{types.Int64}, true)
	added, found := resolveAll(grouping, keys, keys)
	if got := fmt.Sprint(added, found, grouping.dense, grouping.cols[0].Nulls); got != "[0 1 0 2 3] [0 1 0 2 3] true [true false false false]" {
		t.Fatalf("grouping: ids, find, dense, stored NULLs = %s", got)
	}
	grouping.findOrAdd(intKeys(1<<50), make([]int32, 1))
	if grouping.dense {
		t.Fatal("1<<50 did not switch the table to hashing")
	}
	if _, found = resolveAll(grouping, intKeys(), keys); fmt.Sprint(found) != "[0 1 0 2 3]" {
		t.Fatalf("after the switch: find %v", found)
	}
	joining := newKeyTable(nil, "test", []types.Type{types.Int64}, false)
	added, found = resolveAll(joining, keys, keys)
	if got := fmt.Sprint(added, found, joining.len()); got != "[-1 0 -1 1 2] [-1 0 -1 1 2] 3" {
		t.Fatalf("joining: ids, find, keys = %s", got)
	}
}

// TestDenseJoinTableFind: a build side whose keys are dense is addressed
// directly, and a probe finds exactly its keys: none below the range, none
// above, none in its gaps, never a NULL, and the ends of int64 neither wrap
// nor overflow into the range.
func TestDenseJoinTableFind(t *testing.T) {
	build := &types.Column{T: types.Int64, Ints: []int64{10, 11, 13, 0, 11, 16}, Nulls: []bool{false, false, false, true, false, false}}
	b := &types.Batch{Schema: types.Schema{{Name: "k", Type: types.Int64}}, Cols: []*types.Column{build}}
	mat := &Materialized{Schema: b.Schema}
	mat.Append(b)
	jt, err := buildJoinTable(mat, []int{0}, []types.Type{types.Int64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !jt.keys.dense || jt.keys.hashes != nil {
		t.Fatalf("dense %v, %d hashes: a 7-wide build side must be addressed directly", jt.keys.dense, len(jt.keys.hashes))
	}
	probe := []*types.Column{{T: types.Int64,
		Ints:  []int64{9, 10, 12, 13, 17, 11, 0, math.MinInt64, math.MaxInt64, 16, 10 - 1<<32},
		Nulls: []bool{false, false, false, false, false, false, true, false, false, false, false}}}
	p, bi := jt.match(probe, make([]int32, 11), new([]uint64), nil, nil)
	if got, want := fmt.Sprint(p, bi), "[1 3 5 5 9] [0 2 1 4 5]"; got != want {
		t.Fatalf("pairs %s, want %s", got, want)
	}
}

// TestKeyTableResolvesWithoutAllocating: once a table holds a batch's keys,
// resolving that batch again allocates nothing, in either mode.
func TestKeyTableResolvesWithoutAllocating(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		table := inMode(newKeyTable(nil, "test", []types.Type{types.Int64}, true), hashed)
		keys := []*types.Column{randColumn(rand.New(rand.NewSource(1)), types.Int64, 1024, true, 10)}
		ids := make([]int32, 1024)
		table.findOrAdd(keys, ids)
		if table.dense == hashed {
			t.Fatalf("hashed %v: dense %v", hashed, table.dense)
		}
		if allocs := testing.AllocsPerRun(20, func() { table.findOrAdd(keys, ids) }); allocs != 0 {
			t.Errorf("hashed %v: findOrAdd allocates %.1f times per batch", hashed, allocs)
		}
	}
}

// TestKeyTableBooksDirectArray: a dense table's direct array is booked like
// the hash slots, and the switch to hashing returns it to the budget.
func TestKeyTableBooksDirectArray(t *testing.T) {
	ctx := NewContext()
	ctx.SetMemoryLimit(1 << 30)
	table := newKeyTable(ctx, "test", []types.Type{types.Int64}, true)
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = int64(i * 2) // half the span: as sparse as dense goes
	}
	table.findOrAdd(intKeys(keys...), make([]int32, len(keys)))
	if err := table.book(0); err != nil {
		t.Fatal(err)
	}
	cols := int64(cap(table.cols[0].Ints)) * 8
	if want := int64(cap(table.direct))*4 + cols; !table.dense || table.charged != want || ctx.MemoryUsed() != want {
		t.Fatalf("dense %v: charged %d, budget %d, want direct + keys = %d", table.dense, table.charged, ctx.MemoryUsed(), want)
	}
	table.findOrAdd(intKeys(1<<40), make([]int32, 1))
	if err := table.book(0); err != nil {
		t.Fatal(err)
	}
	cols = int64(cap(table.cols[0].Ints)) * 8
	if want := int64(cap(table.slots))*4 + int64(cap(table.hashes))*8 + cols; table.dense || table.direct != nil ||
		table.charged != want || ctx.MemoryUsed() != want {
		t.Fatalf("hashed: charged %d, budget %d, want slots + hashes + keys = %d", table.charged, ctx.MemoryUsed(), want)
	}
	table.release()
	if ctx.MemoryUsed() != 0 {
		t.Fatalf("released: %d bytes still booked", ctx.MemoryUsed())
	}
}
