package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// TestSortMatchesBoxedReference checks the sort operator, full and top-k,
// against the plainest possible reference: the scan's rows boxed with
// Batch.Row and ordered by sort.SliceStable under Value.Compare (NULLs first,
// a DESC key negated). Keys of all four types hold heavy ties and NULLs, so
// most of the order is decided by stability: tied rows must come out in scan
// order, also when they were collected by different parts at Workers=8.
func TestSortMatchesBoxedReference(t *testing.T) {
	schema := types.Schema{{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String}, {Name: "b", Type: types.Bool}, {Name: "seq", Type: types.Int64}}
	floats := []float64{math.Inf(-1), -2.5, 0, 0.25, 1e300}
	strs := []string{"", "a", "ab", "b"}
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 700, 30_000} {
		s := storage.NewStore()
		tbl, err := s.CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		for lo := 0; lo < n; lo += 3000 {
			b := types.NewBatch(schema)
			for i := lo; i < min(lo+3000, n); i++ {
				for _, c := range b.Cols[:4] {
					if rng.Intn(8) == 0 {
						c.AppendNull()
						continue
					}
					switch c.T {
					case types.Int64:
						c.AppendInt(int64(rng.Intn(5)))
					case types.Float64:
						c.AppendFloat(floats[rng.Intn(len(floats))])
					case types.String:
						c.AppendString(strs[rng.Intn(len(strs))])
					case types.Bool:
						c.AppendBool(rng.Intn(2) == 0)
					}
				}
				b.Cols[4].AppendInt(int64(i))
			}
			if err := tx.Insert(tbl, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		scan := plan.NewScan(tbl, "", s.Snapshot())
		scanned := runWithWorkers(t, scan, 1, nil).Rows()
		for trial := 0; trial < 4; trial++ {
			var keys []plan.SortKey
			for _, c := range rng.Perm(4)[:1+rng.Intn(3)] {
				keys = append(keys, plan.SortKey{Col: c, Desc: rng.Intn(2) == 0})
			}
			want := append([][]types.Value(nil), scanned...)
			sort.SliceStable(want, func(a, b int) bool {
				for _, k := range keys {
					if c := want[a][k.Col].Compare(want[b][k.Col]); c != 0 {
						return (c < 0) != k.Desc
					}
				}
				return false
			})
			for _, topK := range []int64{-1, 0, 1, 100, int64(n) + 1} {
				limited := want
				if topK >= 0 && int64(len(want)) > topK {
					limited = want[:topK]
				}
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("n=%d/keys=%v/topk=%d/workers=%d", n, keys, topK, workers)
					got := runWithWorkers(t, &plan.Sort{Child: scan, Keys: keys, TopK: topK}, workers, nil).Rows()
					if len(got) != len(limited) {
						t.Fatalf("%s: %d rows, want %d", name, len(got), len(limited))
					}
					for r := range got {
						for c, g := range got[r] {
							if w := limited[r][c]; g.Null != w.Null || !g.Null && !g.Equal(w) {
								t.Fatalf("%s: row %d is %v, want %v", name, r, got[r], limited[r])
							}
						}
					}
				}
			}
		}
	}
}

// FuzzTopKMatchesFullSort holds ORDER BY ... LIMIT k, at Workers 1, 2 and
// 8, to the first k rows of a boxed stable sort of the input. The columns
// draw from small pools — NULL, NaN, -0 and +0, ±Inf, BIGINT's extremes —
// or from wide ranges, so the k-th key is shared by many rows or by few;
// seq, unique, makes every row distinct, so ties must keep input order.
// The reference ranks NaN explicitly, after every number and equal to
// itself, where Value.Compare calls it equal to everything.
func FuzzTopKMatchesFullSort(f *testing.F) {
	for shape := range uint16(24) {
		f.Add(int64(shape), shape)
	}
	schema := types.Schema{{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String}, {Name: "b", Type: types.Bool}, {Name: "seq", Type: types.Int64}}
	ints := []int64{math.MinInt64, -7, -1, 0, 1, 7, math.MaxInt64}
	floats := []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 0.5, math.Inf(1), math.NaN()}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := []int{0, 900, 20_000, 70_000}[shape%4]
		nullEvery := []int{0, 3, 40}[shape/4%3] // 0: no NULLs
		wide := shape/12%2 == 1
		in := &Materialized{Schema: schema}
		for lo := 0; lo < n; lo += types.BatchSize {
			b := types.NewBatch(schema)
			for i := lo; i < min(lo+types.BatchSize, n); i++ {
				for _, c := range b.Cols[:4] {
					if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
						c.AppendNull()
						continue
					}
					switch c.T {
					case types.Int64:
						if wide {
							c.AppendInt(rng.Int63() - rng.Int63())
						} else {
							c.AppendInt(ints[rng.Intn(len(ints))])
						}
					case types.Float64:
						if wide && rng.Intn(50) != 0 {
							c.AppendFloat(rng.NormFloat64())
						} else {
							c.AppendFloat(floats[rng.Intn(len(floats))])
						}
					case types.String:
						c.AppendString([]string{"", "a", "b"}[rng.Intn(3)])
					case types.Bool:
						c.AppendBool(rng.Intn(2) == 0)
					}
				}
				b.Cols[4].AppendInt(int64(i))
			}
			in.Append(b)
		}
		var keys []plan.SortKey
		for _, c := range rng.Perm(4)[:1+rng.Intn(3)] {
			keys = append(keys, plan.SortKey{Col: c, Desc: rng.Intn(2) == 0})
		}
		want := in.Rows()
		sort.SliceStable(want, func(a, b int) bool {
			for _, k := range keys {
				if c := refCompare(want[a][k.Col], want[b][k.Col]); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
		bindings := map[string]*Materialized{"in": in}
		scan := &plan.WorkingScan{Name: "in", Sch: schema, CardEst: float64(n)}
		for _, k := range []int64{1, 1 + rng.Int63n(200), int64(n)} {
			limited := want[:min(int64(len(want)), k)]
			for _, workers := range []int{1, 2, 8} {
				got := runWithWorkers(t, &plan.Sort{Child: scan, Keys: keys, TopK: k}, workers, bindings).Rows()
				if len(got) != len(limited) {
					t.Fatalf("keys=%v k=%d workers=%d: %d rows, want %d", keys, k, workers, len(got), len(limited))
				}
				for r := range got {
					if got[r][4].I != limited[r][4].I {
						t.Fatalf("keys=%v k=%d workers=%d: row %d is %v, want %v", keys, k, workers, r, got[r], limited[r])
					}
				}
			}
		}
	})
}

// refCompare orders two values of one type as ORDER BY does: NULL first,
// NaN after every number and equal to itself, -0 equal to +0.
func refCompare(a, b types.Value) int {
	switch {
	case a.Null || b.Null:
		return boolRank(!a.Null) - boolRank(!b.Null)
	case a.T == types.Float64:
		if an, bn := math.IsNaN(a.F), math.IsNaN(b.F); an || bn {
			return boolRank(an) - boolRank(bn)
		}
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	}
	return a.Compare(b)
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTopKTurnsAwayWithoutAllocating: once a top-k sink holds its bound, a
// batch of which it admits no row costs no allocation, under a BIGINT or a
// DOUBLE first key in either direction, a row tied with the bound on the
// first key and turned away by the second included.
func TestTopKTurnsAwayWithoutAllocating(t *testing.T) {
	const k = 10
	schema := types.Schema{{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64}}
	for _, first := range []plan.SortKey{{Col: 0}, {Col: 1}, {Col: 0, Desc: true}, {Col: 1, Desc: true}} {
		// batch holds rows of first key key(i) and second key 0, but for
		// the tie.
		batch := func(key func(i int) int, tie bool) *types.Batch {
			b := types.NewBatch(schema)
			for i := range types.BatchSize {
				v := [2]int{}
				v[first.Col] = key(i)
				if tie && i == 0 {
					v[first.Col], v[1-first.Col] = k-1, 1
					if first.Desc {
						v[first.Col] = 2*types.BatchSize - k
					}
				}
				b.Cols[0].AppendInt(int64(v[0]))
				b.Cols[1].AppendFloat(float64(v[1]))
			}
			return b
		}
		bestFrom, worseFrom := 0, types.BatchSize
		if first.Desc {
			bestFrom, worseFrom = worseFrom, bestFrom
		}
		best := batch(func(i int) int { return bestFrom + i }, false)
		worse := batch(func(i int) int { return worseFrom + i }, true)
		s := &sortSink{ctx: latestContext(), keys: []plan.SortKey{first, {Col: 1 - first.Col}}, k: k,
			bound: &kthRow{}, rows: Materialized{Schema: schema}}
		if err := s.consume(best); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.consume(worse); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 || s.rows.NumRows != k {
			t.Errorf("first key %+v: %v allocations per batch turned away and %d rows held, want 0 and %d",
				first, allocs, s.rows.NumRows, k)
		}
	}
}
