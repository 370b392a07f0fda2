package exec

import (
	"math"
	"math/rand"
	"testing"

	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// TestTypedMinMaxMatchesBoxed pins the typed min/max accumulators to the
// boxed loop they replace — every row through better(), parts merged in part
// order through better() — bit for bit: NULLs are skipped, a group of NULLs
// alone stays NULL, the first of equal values stays (of -0 and +0 too), and
// a NaN, which Value.Compare holds equal to everything, neither replaces a
// value nor is replaced once it is a group's first.
func TestTypedMinMaxMatchesBoxed(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		typ := []types.Type{types.Int64, types.Float64}[seed%2]
		f := []plan.AggFunc{plan.AggMin, plan.AggMax}[seed/2%2]
		groups, nullEvery := 1+rng.Intn(6), []int{0, 2, 5}[rng.Intn(3)]
		spec := plan.AggSpec{Func: f, Arg: colRef("x", 0, typ), Type: typ}
		identity := make([]int32, groups)
		for g := range identity {
			identity[g] = int32(g)
		}

		var total aggAcc
		var want []types.Value
		for part, parts := 0, 1+rng.Intn(3); part < parts; part++ {
			var acc aggAcc
			acc.grow(groups, spec)
			boxed := growTo([]types.Value(nil), groups, types.NewNull(typ))
			for batch, batches := 0, rng.Intn(3); batch < batches; batch++ {
				n := 1 + rng.Intn(12)
				col, ids := types.NewColumn(typ, n), make([]int32, n)
				for i := range ids {
					ids[i] = int32(rng.Intn(groups))
					switch {
					case nullEvery > 0 && rng.Intn(nullEvery) == 0:
						col.AppendNull()
					case typ == types.Int64:
						col.AppendInt(ints[rng.Intn(len(ints))])
					default:
						col.AppendFloat(floats[rng.Intn(len(floats))])
					}
				}
				acc.fold(f, ids, col)
				for i, id := range ids {
					if v := col.Value(i); better(v, boxed[id], f) {
						boxed[id] = v
					}
				}
			}
			if part == 0 {
				total, want = acc, boxed
				continue
			}
			total.merge(f, &acc, identity)
			for g := range boxed {
				if better(boxed[g], want[g], f) {
					want[g] = boxed[g]
				}
			}
		}
		for g := range want {
			got, _ := total.result(spec, g)
			if got.Null != want[g].Null || got.T != want[g].T || got.I != want[g].I ||
				math.Float64bits(got.F) != math.Float64bits(want[g].F) {
				t.Fatalf("seed %d: %s(%s) of group %d = %v, the boxed loop says %v", seed, f, typ, g, got, want[g])
			}
		}
	}
}
