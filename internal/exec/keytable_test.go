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
func degenerate(n int) []uint64 { return make([]uint64, n) }

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
// slot array doubles many times), under the real hash and the degenerate one.
func TestKeyTableGroupsLikeOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := randKeyTypes(rng)
		wide, nullEvery, degenerateHash := seed%4 == 3, []int{0, 3, 10}[seed%3], seed%8 >= 4
		if wide {
			ts[0] = types.Int64 // BOOLEAN columns alone make three keys
		}
		oracle := &oracleAggHash{buckets: map[uint64][]int{}}
		table := newKeyTable(nil, "test", ts, true)
		for batch := 0; batch < 6; batch++ {
			n := 1 + rng.Intn(1500)
			if wide && degenerateHash {
				n = 1 + rng.Intn(150) // all-collide probing is quadratic
			}
			b := randBatch(rng, ts, n, wide, nullEvery)
			hashes := hashKeys(b.Cols, n, nil)
			if degenerateHash {
				hashes = degenerate(n)
			}
			ids := make([]int32, n)
			table.findOrAdd(b.Cols, hashes, ids)
			for i := 0; i < n; i++ {
				if want := oracle.lookup(b.Row(i)); int(ids[i]) != want {
					t.Fatalf("seed %d types %v batch %d row %d %v: id %d, oracle group %d",
						seed, ts, batch, i, b.Row(i), ids[i], want)
				}
			}
			// find sees exactly what findOrAdd stored — except a NaN key,
			// which equals nothing, itself included.
			again := make([]int32, n)
			table.find(b.Cols, hashes, again)
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

// TestKeyTableIntFastPathMatchesOracle pins resolve's compare for one BIGINT
// key without NULLs: the same table is fed batches with and without NULLs in
// turn, so it enters the fast path, leaves it for good once a NULL key is
// stored, and must hand out the oracle's ids throughout — under the
// degenerate hash too, where nothing but the compare tells keys apart.
func TestKeyTableIntFastPathMatchesOracle(t *testing.T) {
	ts := []types.Type{types.Int64}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		wide, degenerateHash := seed%2 == 0, seed%4 >= 2
		oracle := &oracleAggHash{buckets: map[uint64][]int{}}
		table := newKeyTable(nil, "test", ts, true)
		for batch, nullEvery := range []int{0, 0, 0, 5, 0, 5, 0} {
			n := 100 + rng.Intn(300) // enough rows that one in five NULL means some NULL
			b := randBatch(rng, ts, n, wide, nullEvery)
			if fast := batch < 3; fast != (b.Cols[0].Nulls == nil && table.cols[0].Nulls == nil) {
				t.Fatalf("seed %d batch %d: on the fast path: %v, want %v", seed, batch, !fast, fast)
			}
			hashes := hashKeys(b.Cols, n, nil)
			if degenerateHash {
				hashes = degenerate(n)
			}
			ids, again := make([]int32, n), make([]int32, n)
			table.findOrAdd(b.Cols, hashes, ids)
			table.find(b.Cols, hashes, again)
			for i := 0; i < n; i++ {
				if want := oracle.lookup(b.Row(i)); int(ids[i]) != want || int(again[i]) != want {
					t.Fatalf("seed %d batch %d row %d %v: findOrAdd %d, find %d, oracle group %d",
						seed, batch, i, b.Row(i), ids[i], again[i], want)
				}
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
// called new, in order.
func TestDedupLikeOracle(t *testing.T) {
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
				d = newRowTable(nil, "test", schema)
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

// TestJoinTableMatchesOracle: build + probe produce the oracle's (probe row,
// build row) pairs in the oracle's order, for every pairing of key types the
// planner allows — same type on both sides, or BIGINT against DOUBLE either
// way round (compared as DOUBLE: 2^53+1 = 2^53.0) — with NULL keys on both
// sides, 1–3 key columns, the build side split over several batches.
func TestJoinTableMatchesOracle(t *testing.T) {
	pairsOf := [][2]types.Type{
		{types.Int64, types.Int64}, {types.Float64, types.Float64}, {types.Int64, types.Float64},
		{types.Float64, types.Int64}, {types.String, types.String}, {types.Bool, types.Bool},
	}
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		nKeys := 1 + rng.Intn(3)
		wide, nullEvery := seed%4 == 3, []int{0, 5}[seed%2]
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
		for batch := 0; batch < 3; batch++ {
			pb := randBatch(rng, probeTypes, 1+rng.Intn(800), wide, nullEvery)
			keys := pickCols(pb, keyCols)
			ids := make([]int32, pb.Len())
			gotP, gotB := jt.match(keys, hashKeys(keys, pb.Len(), nil), ids)
			wantP, wantB := oracle.pairs(pb, keyCols)
			if fmt.Sprint(gotP, gotB) != fmt.Sprint(wantP, wantB) {
				t.Fatalf("seed %d build %v probe %v: %d pairs, oracle %d; first difference at %d",
					seed, buildTypes[:nKeys], probeTypes[:nKeys], len(gotP), len(wantP), firstDiff(gotP, gotB, wantP, wantB))
			}
			// The same lookups when every key collides: find alone, against
			// a table filled under the degenerate hash.
			slow := newKeyTable(nil, "test", keyTypes, false)
			build := flatten(mat)
			if build.Len() > 300 {
				build = build.Slice(0, 300)
			}
			buildIDs := make([]int32, build.Len())
			slow.findOrAdd(pickCols(build, keyCols), degenerate(build.Len()), buildIDs)
			slow.find(keys, degenerate(pb.Len()), ids)
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
	p, b := jt.match(probeF, hashKeys(probeF, 4, nil), make([]int32, 4))
	if got, want := fmt.Sprint(p, b), "[0 0 1 2] [0 1 2 3]"; got != want {
		t.Errorf("BIGINT build, DOUBLE probe: pairs %s, want %s", got, want)
	}
	probeI := []*types.Column{{T: types.Int64, Ints: []int64{1<<53 + 1, 1 << 53, 8}}}
	if jt, err = buildJoinTable(mat, []int{0}, []types.Type{types.Int64}, nil); err != nil {
		t.Fatal(err)
	}
	p, b = jt.match(probeI, hashKeys(probeI, 3, nil), make([]int32, 3))
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
