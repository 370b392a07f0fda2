package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
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

// TestKeylessFoldMatchesGrouped pins the key-less fold, which keeps its one
// group's accumulators in registers, to the grouped loops: every aggregate
// over every column must give the same bits without keys as under GROUP BY a
// key that holds one value, at every worker count, and a BIGINT sum past
// int64 must fail the same way in both forms. The columns hold NULLs, NaN,
// ±0, ±Inf, floats of every magnitude (whose sum depends on the order of
// the additions) and BIGINTs near the ends of int64.
func TestKeylessFoldMatchesGrouped(t *testing.T) {
	const n = 50_000
	schema := types.Schema{
		{Name: "g", Type: types.Int64},
		{Name: "dense", Type: types.Float64},   // magnitudes 1e-300…1e300, both signs, no NULLs
		{Name: "mixed", Type: types.Float64},   // the same with NULLs
		{Name: "special", Type: types.Float64}, // NaN, ±0, ±Inf among ordinary values
		{Name: "zeros", Type: types.Float64},   // ±0 and NULLs only
		{Name: "nulls", Type: types.Float64},   // NULLs only
		{Name: "ints", Type: types.Int64},      // ordinary BIGINTs, NULLs
		{Name: "edges", Type: types.Int64},     // near MaxInt64 and MinInt64 in pairs: partial sums leave int64, the total does not
		{Name: "over", Type: types.Int64},      // near MaxInt64: the sum is out of range
		{Name: "strs", Type: types.String},
	}
	s := storage.NewStore()
	tbl, err := s.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	b := types.NewBatch(schema)
	for i := range n {
		null := rng.Intn(9) == 0
		row := []types.Value{types.NewInt(7)}
		f := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(601)-300))
		row = append(row, types.NewFloat(f))
		if null {
			row = append(row, types.NewNull(types.Float64))
		} else {
			row = append(row, types.NewFloat(f))
		}
		switch {
		case rng.Intn(7) == 0:
			row = append(row, types.NewNull(types.Float64))
		case rng.Intn(97) == 0:
			row = append(row, types.NewFloat(specials[rng.Intn(len(specials))]))
		default:
			row = append(row, types.NewFloat(rng.NormFloat64()))
		}
		if rng.Intn(5) == 0 {
			row = append(row, types.NewNull(types.Float64))
		} else {
			row = append(row, types.NewFloat(specials[1+rng.Intn(2)]))
		}
		row = append(row, types.NewNull(types.Float64))
		if null {
			row = append(row, types.NewNull(types.Int64))
		} else {
			row = append(row, types.NewInt(rng.Int63n(1<<40)-1<<39))
		}
		if pair := i / 2; pair%11 == 0 {
			row = append(row, types.NewNull(types.Int64))
		} else if i%2 == 0 {
			row = append(row, types.NewInt(math.MaxInt64-rng.Int63n(1000)))
		} else {
			row = append(row, types.NewInt(math.MinInt64+rng.Int63n(1000)))
		}
		if null {
			row = append(row, types.NewNull(types.Int64))
		} else {
			row = append(row, types.NewInt(math.MaxInt64-rng.Int63n(1000)))
		}
		row = append(row, types.NewString(fmt.Sprintf("s%05d", rng.Intn(n))))
		b.AppendRow(row)
	}
	tx := s.Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	funcs := []plan.AggFunc{plan.AggCountStar, plan.AggCount, plan.AggSum, plan.AggAvg,
		plan.AggMin, plan.AggMax, plan.AggStddev, plan.AggVariance}
	for ci, col := range schema[1:] {
		arg := colRef(col.Name, ci+1, col.Type)
		for _, f := range funcs {
			typ := types.Float64
			switch {
			case f == plan.AggCountStar || f == plan.AggCount:
				typ = types.Int64
			case f == plan.AggMin || f == plan.AggMax || (f == plan.AggSum && col.Type == types.Int64):
				typ = col.Type
			case col.Type == types.String:
				continue
			}
			spec := plan.AggSpec{Func: f, Arg: arg, Type: typ, Name: f.String()}
			if f == plan.AggCountStar {
				spec.Arg = nil
			}
			keyless := &plan.Aggregate{Child: plan.NewScan(tbl, "", s.Snapshot()), Aggs: []plan.AggSpec{spec}}
			grouped := &plan.Aggregate{Child: plan.NewScan(tbl, "", s.Snapshot()), Aggs: []plan.AggSpec{spec},
				Keys: []expr.Expr{colRef("g", 0, types.Int64)}, KeyNames: []string{"g"}}
			for _, workers := range []int{1, 2, 8} {
				ctx := latestContext()
				ctx.Workers = workers
				got, gotErr := Run(keyless, ctx)
				want, wantErr := Run(grouped, ctx)
				name := fmt.Sprintf("%s(%s) at %d workers", f, col.Name, workers)
				// The overflow column's sum is the one error, in both forms.
				if overflow := col.Name == "over" && f == plan.AggSum; overflow || gotErr != nil || wantErr != nil {
					if !overflow || !errors.Is(gotErr, errBigintRange) || !errors.Is(wantErr, errBigintRange) {
						t.Fatalf("%s: key-less error %v, grouped error %v", name, gotErr, wantErr)
					}
					continue
				}
				gr, wr := got.Rows(), want.Rows()
				if len(gr) != 1 || len(wr) != 1 {
					t.Fatalf("%s: %d key-less rows, %d grouped rows, want 1 each", name, len(gr), len(wr))
				}
				g, w := gr[0][0], wr[0][1]
				if g.Null != w.Null || g.T != w.T || g.I != w.I || g.S != w.S ||
					math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("%s: key-less %v (bits %#x), grouped %v (bits %#x)",
						name, g, math.Float64bits(g.F), w, math.Float64bits(w.F))
				}
			}
		}
	}
}
