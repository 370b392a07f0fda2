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
