package expr

import (
	"math"
	"testing"

	"lambdadb/internal/types"
)

// TestFloatFuncLoopsMatchMath: every one-argument DOUBLE function and the
// constant powers x ^ 0, x ^ 1 and x ^ 2 run as typed loops, and each row
// of a loop's result is, bit for bit, its math function applied to the row:
// over NaN, ±0, ±Inf, subnormals, ±2^53 ± 1, 1e±300 and ±0.5, with and
// without NULLs (a NULL row stays NULL), compiled as the root — fresh and
// lent — and as an inner node (under * 1, which keeps every bit but a NaN's
// payload).
func TestFloatFuncLoopsMatchMath(t *testing.T) {
	sign := func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	funcs := map[string]func(float64) float64{
		"sqrt": math.Sqrt, "exp": math.Exp, "ln": math.Log, "log": math.Log10,
		"floor": math.Floor, "ceil": math.Ceil, "round": math.Round,
		"sin": math.Sin, "cos": math.Cos, "abs": math.Abs, "sign": sign,
	}
	x := &ColRef{Name: "x", Index: 0, Typ: types.Float64}
	type fn struct {
		e   Expr
		ref func(float64) float64
	}
	var fns []fn
	for name, f := range funcs {
		if scalarFuncs[name].floats == nil {
			t.Errorf("%s has no typed loop", name)
		}
		fns = append(fns, fn{&FuncCall{Name: name, Args: []Expr{x}, Typ: types.Float64}, f})
	}
	for _, k := range []float64{0, 1, 2} {
		fns = append(fns, fn{&BinOp{Op: OpPow, L: x, R: lit(types.NewFloat(k)), Typ: types.Float64},
			func(v float64) float64 { return math.Pow(v, k) }})
	}

	xs := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1050, 0x1p-1022, 1e-160, -1e-160,
		0x1p53 + 1, 0x1p53 - 1, -0x1p53 + 1, -0x1p53 - 1, 0x1p53 + 2, -0x1p53 - 2,
		1e300, -1e300, 1e-300, -1e-300, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1, -1, 3.7, -3.7, math.Pi, 1e15 + 0.5}
	nulls := make([]bool, len(xs))
	for i := range nulls {
		nulls[i] = i%4 == 1
	}
	for _, withNulls := range []bool{false, true} {
		col := &types.Column{T: types.Float64, Floats: xs}
		if withNulls {
			col.Nulls = nulls
		}
		b := &types.Batch{Schema: types.Schema{{Name: "x", Type: types.Float64}}, Cols: []*types.Column{col}}
		for _, f := range fns {
			inner := &BinOp{Op: OpMul, L: f.e, R: lit(types.NewFloat(1)), Typ: types.Float64}
			for _, form := range []struct {
				name    string
				e       Expr
				compile func(Expr, []types.Value, *types.Scratch) (Evaluator, error)
			}{{"lent root", f.e, Compile}, {"inner node", inner, Compile}} {
				ev, err := form.compile(form.e, nil, &types.Scratch{})
				if err != nil {
					t.Fatalf("%s: %v", form.e, err)
				}
				got, err := ev(b)
				if err != nil {
					t.Fatalf("%s: %v", form.e, err)
				}
				for i, v := range xs {
					switch want := f.ref(v); {
					case got.IsNull(i) != (withNulls && nulls[i]):
						t.Errorf("%s (%s) row %d: NULL %v, want %v", form.e, form.name, i, got.IsNull(i), withNulls && nulls[i])
					case got.IsNull(i) || math.IsNaN(want) && math.IsNaN(got.Floats[i]):
					case math.Float64bits(got.Floats[i]) != math.Float64bits(want):
						t.Errorf("%s (%s) of %g: got %g (%#x), math gives %g (%#x)", form.e, form.name, v,
							got.Floats[i], math.Float64bits(got.Floats[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}
