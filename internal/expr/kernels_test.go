package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lambdadb/internal/types"
)

// castByValue is the definition the typed cast loops must agree with: every
// row through castValue.
func castByValue(t *testing.T, c *types.Column, to types.Type) *types.Column {
	t.Helper()
	out := types.NewColumn(to, c.Len())
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			out.AppendNull()
			continue
		}
		v, err := castValue(c.Value(i), to)
		if err != nil {
			t.Fatalf("castValue(%v, %s): %v", c.Value(i), to, err)
		}
		out.Append(v)
	}
	return out
}

func TestTypedCastsMatchCastValue(t *testing.T) {
	floats := &types.Column{T: types.Float64, Floats: []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, -0.999, -1.5, 2.5, 1e18, -1e18, 9.3e18, -9.3e18, 1e300, -1e300,
		math.MaxInt64, math.MinInt64, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 7}}
	ints := &types.Column{T: types.Int64, Ints: []int64{
		0, 1, -1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, 42}}
	bools := &types.Column{T: types.Bool, Bools: []bool{true, false, true}}
	withNulls := func(c *types.Column) *types.Column {
		out := *c
		out.Nulls = make([]bool, c.Len())
		for i := range out.Nulls {
			out.Nulls[i] = i%3 == 1
		}
		return &out
	}
	cases := []struct {
		name string
		src  *types.Column
		to   types.Type
	}{
		{"float-to-int", floats, types.Int64}, {"float-to-int/nulls", withNulls(floats), types.Int64},
		{"int-to-float", ints, types.Float64}, {"int-to-float/nulls", withNulls(ints), types.Float64},
		{"bool-to-int", bools, types.Int64}, {"bool-to-int/nulls", withNulls(bools), types.Int64},
		{"float-to-string", floats, types.String}, // the generic path, for contrast
	}
	for _, tc := range cases {
		got, err := castColumn(tc.src, tc.to)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := castByValue(t, tc.src, tc.to)
		if got.T != want.T || got.Len() != want.Len() {
			t.Fatalf("%s: got %s x %d, want %s x %d", tc.name, got.T, got.Len(), want.T, want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			g, w := got.Value(i), want.Value(i)
			if g.Null != w.Null || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Errorf("%s row %d (%v): got %v, want %v", tc.name, i, tc.src.Value(i), g, w)
			}
		}
	}
}

// TestLambdaPowerMatchesSQL: a scalar λ's ^ and SQL's ^ are one operator.
// For constant exponents — the ones constPow specialises and the ones it
// leaves to math.Pow — CompileFloatLambda and Compile agree bit for bit
// (NaN equals NaN) on -Inf, ±0, subnormals and random bit patterns.
func TestLambdaPowerMatchesSQL(t *testing.T) {
	xs := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), math.NaN(), 1, -1, 2.5, -3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1.5e-154, 1e-162, 1e200}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200_000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()), math.Ldexp(rng.Float64()+0.5, -340-rng.Intn(40)))
	}
	b := &types.Batch{Schema: types.Schema{{Name: "x", Type: types.Float64}},
		Cols: []*types.Column{{T: types.Float64, Floats: xs}}}
	for _, k := range []float64{0, 1, 2, 3, 0.5} {
		ev, err := Compile(&BinOp{Op: OpPow, Typ: types.Float64,
			L: &ColRef{Name: "x", Index: 0, Typ: types.Float64}, R: lit(types.NewFloat(k))})
		if err != nil {
			t.Fatal(err)
		}
		sqlCol, err := ev(b)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := CompileFloatLambda(&Lambda{Params: []string{"p"}, Body: &BinOp{Op: OpPow, Typ: types.Float64,
			L: &ParamField{Param: "p", Field: "x", ParamIdx: 0, FieldIdx: 0, Typ: types.Float64}, R: lit(types.NewFloat(k))}})
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		for i, x := range xs {
			g, w := fn([]float64{x}, nil), sqlCol.Floats[i]
			if (math.IsNaN(g) && math.IsNaN(w)) || math.Float64bits(g) == math.Float64bits(w) {
				continue
			}
			if bad++; bad <= 5 {
				t.Errorf("%g ^ %g: λ gives %g (%#x), SQL gives %g (%#x)", x, k, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		if bad > 0 {
			t.Errorf("x ^ %g: %d of %d values differ between λ and SQL", k, bad, len(xs))
		}
	}
}

// TestLambdaCastMatchesSQL: a λ's CAST is SQL's. CAST(x AS BIGINT) truncates
// toward zero exactly as castColumn does, positive and negative fractions
// alike, and CAST(x AS DOUBLE) keeps x. A cast to a type that is not a
// number, and a CASE without ELSE — NULL where no branch matches — are
// rejected when the λ compiles, by an error that names the λ.
func TestLambdaCastMatchesSQL(t *testing.T) {
	xs := []float64{0.5, 0.999, 1.5, 2, 2.75, -0.5, -0.999, -1.5, -2, -2.75, 0, 1e15 + 0.5, -1e15 - 0.5}
	b := &types.Batch{Schema: types.Schema{{Name: "x", Type: types.Float64}},
		Cols: []*types.Column{{T: types.Float64, Floats: xs}}}
	x := &ParamField{Param: "p", Field: "x", ParamIdx: 0, FieldIdx: 0, Typ: types.Float64}
	for _, to := range []types.Type{types.Int64, types.Float64} {
		ev, err := Compile(&Cast{E: &ColRef{Name: "x", Index: 0, Typ: types.Float64}, To: to})
		if err != nil {
			t.Fatal(err)
		}
		sqlCol, err := ev(b)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := CompileFloatLambda(&Lambda{Params: []string{"p"}, Body: &Cast{E: x, To: to}})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range xs {
			if got, want := fn([]float64{v}, nil), sqlCol.Value(i).AsFloat(); got != want {
				t.Errorf("CAST(%g AS %s): λ gives %g, SQL gives %g", v, to, got, want)
			}
		}
	}
	for _, body := range []Expr{&Cast{E: x, To: types.String}, &Cast{E: x, To: types.Bool},
		&Case{Whens: []When{{Cond: &BinOp{Op: OpGt, L: x, R: lit(types.NewFloat(1))}, Then: x}}}} {
		l := &Lambda{Params: []string{"p"}, Body: body}
		if _, err := CompileFloatLambda(l); err == nil || !strings.Contains(err.Error(), l.String()) {
			t.Errorf("%s: err = %v, want a compile error naming the λ", l, err)
		}
	}
}

// TestConstantPowerMatchesPow: x ^ 2, x ^ 1 and x ^ 0 are compiled without
// math.Pow and must return what math.Pow returns, on the edge values and on
// a million random bit patterns (every exponent range, subnormals and NaN
// payloads included). NaN equals NaN; everything else is compared by bits.
func TestConstantPowerMatchesPow(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 0.1, 1e-160, -1e-160, 1.5e-154, 1.4916681462400413e-154,
		1e-162, 3e-162, 2.2e-162, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		1e154, 1.3407807929942596e154, 1.3407807929942597e154, -1.4e154, 1e200, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 100_000; i++ { // squares that land among the subnormals
		xs = append(xs, math.Ldexp(rng.Float64()+0.5, -512-rng.Intn(30)))
	}
	b := &types.Batch{Schema: types.Schema{{Name: "x", Type: types.Float64}},
		Cols: []*types.Column{{T: types.Float64, Floats: xs}}}
	for _, k := range []float64{2, 1, 0} {
		for _, exp := range []Expr{lit(types.NewFloat(k)), &Cast{E: lit(types.NewInt(int64(k))), To: types.Float64}} {
			ev, err := Compile(&BinOp{Op: OpPow, Typ: types.Float64,
				L: &ColRef{Name: "x", Index: 0, Typ: types.Float64}, R: exp})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev(b)
			if err != nil {
				t.Fatal(err)
			}
			bad := 0
			for i, x := range xs {
				g, w := got.Floats[i], math.Pow(x, k)
				if (math.IsNaN(g) && math.IsNaN(w)) || math.Float64bits(g) == math.Float64bits(w) {
					continue
				}
				if bad++; bad <= 5 {
					t.Errorf("%g ^ %g = %g (%#x), math.Pow gives %g (%#x)", x, k, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
			if bad > 0 {
				t.Fatalf("x ^ %g: %d of %d values differ from math.Pow", k, bad, len(xs))
			}
		}
	}
}
