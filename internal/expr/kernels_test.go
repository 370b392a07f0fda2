package expr

import (
	"errors"
	"math"
	"math/big"
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
		got, err := castColumn(&types.Buffer{}, tc.src, tc.to)
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

// TestLambdaPowerMatchesSQL: a λ's ^ and SQL's ^ are one operator. For
// constant exponents — the ones constPow specialises and the ones it leaves
// to math.Pow — a bound λ body and the SQL expression agree bit for bit (NaN
// equals NaN) on -Inf, ±0, subnormals and random bit patterns.
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
			L: &ColRef{Name: "x", Index: 0, Typ: types.Float64}, R: lit(types.NewFloat(k))}, nil, nil)

		if err != nil {
			t.Fatal(err)
		}
		sqlCol, err := ev(b)
		if err != nil {
			t.Fatal(err)
		}
		lambdaCol := evalLambda(t, &Lambda{Params: []string{"p"}, Body: &BinOp{Op: OpPow,
			L: &ColRef{Table: "p", Name: "x", Index: -1}, R: lit(types.NewFloat(k))}}, b, b.Schema)
		bad := 0
		for i, x := range xs {
			g, w := lambdaCol.Floats[i], sqlCol.Floats[i]
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
// number is rejected when the λ binds, by an error that names the λ. A CASE
// without ELSE binds and is NULL where no branch matches, as in SQL; the
// operators reject a NULL result when they run.
func TestLambdaCastMatchesSQL(t *testing.T) {
	xs := []float64{0.5, 0.999, 1.5, 2, 2.75, -0.5, -0.999, -1.5, -2, -2.75, 0, 1e15 + 0.5, -1e15 - 0.5}
	b := &types.Batch{Schema: types.Schema{{Name: "x", Type: types.Float64}},
		Cols: []*types.Column{{T: types.Float64, Floats: xs}}}
	x := &ColRef{Table: "p", Name: "x", Index: -1}
	for _, to := range []types.Type{types.Int64, types.Float64} {
		ev, err := Compile(&Cast{E: &ColRef{Name: "x", Index: 0, Typ: types.Float64}, To: to}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sqlCol, err := ev(b)
		if err != nil {
			t.Fatal(err)
		}
		lambdaCol := evalLambda(t, &Lambda{Params: []string{"p"}, Body: &Cast{E: x, To: to}}, b, b.Schema)
		for i, v := range xs {
			if got, want := lambdaCol.Floats[i], sqlCol.Value(i).AsFloat(); got != want {
				t.Errorf("CAST(%g AS %s): λ gives %g, SQL gives %g", v, to, got, want)
			}
		}
	}
	for _, body := range []Expr{&Cast{E: x, To: types.String}, &Cast{E: x, To: types.Bool}} {
		l := &Lambda{Params: []string{"p"}, Body: body}
		if _, err := BindLambda(l, []types.Schema{b.Schema}); err == nil || !strings.Contains(err.Error(), l.String()) {
			t.Errorf("%s: err = %v, want a bind error naming the λ", l, err)
		}
	}
	caseCol := evalLambda(t, &Lambda{Params: []string{"p"}, Body: &Case{
		Whens: []When{{Cond: &BinOp{Op: OpGt, L: x, R: lit(types.NewFloat(1))}, Then: x}}}}, b, b.Schema)
	for i, v := range xs {
		if got := caseCol.Value(i); got.Null != (v <= 1) || !got.Null && got.F != v {
			t.Errorf("CASE WHEN %g > 1 THEN %g END: λ gives %v", v, v, got)
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
				L: &ColRef{Name: "x", Index: 0, Typ: types.Float64}, R: exp}, nil, nil)

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

// kernelSpecials are the values a kernel must treat exactly as the boxed
// reference does: ±0, NaN, ±Inf, BIGINT's extremes, the exponents constPow
// specialises.
var kernelSpecials = map[types.Type][]types.Value{
	types.Int64: {types.NewInt(0), types.NewInt(1), types.NewInt(-1), types.NewInt(2), types.NewInt(-7),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64), types.NewInt(math.MaxInt64 - 1),
		types.NewInt(math.MinInt64 + 1), types.NewInt(1 << 32), types.NewInt(-(1 << 31))},
	types.Float64: {types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1), types.NewFloat(-1),
		types.NewFloat(2), types.NewFloat(0.5), types.NewFloat(-2.5), types.NewFloat(1e300), types.NewFloat(-1e300),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(math.SmallestNonzeroFloat64)},
	types.String: {types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"), types.NewString("B")},
	types.Bool:   {types.NewBool(false), types.NewBool(true)},
}

// kernelColumn is n random rows of type t: specials, small numbers and, if
// nulls, one row in six NULL with a special in its slot; else no bitmap.
func kernelColumn(rng *rand.Rand, t types.Type, n int, nulls bool) *types.Column {
	c := types.NewColumn(t, n)
	if nulls {
		c.Nulls = make([]bool, n)
	}
	specials := kernelSpecials[t]
	for i := 0; i < n; i++ {
		v := specials[rng.Intn(len(specials))]
		switch {
		case t == types.Int64 && rng.Intn(2) == 0:
			v = types.NewInt(rng.Int63n(2001) - 1000)
		case t == types.Float64 && rng.Intn(2) == 0:
			v = types.NewFloat(rng.NormFloat64() * 100)
		}
		c.Append(v)
		if nulls {
			c.Nulls[i] = rng.Intn(6) == 0
		}
	}
	return c
}

// refBinary is a binary operator on boxed values, row by row: NULL in, NULL
// out (AND and OR: Kleene's logic), a NaN operand makes every comparison
// but <> false, and BIGINT arithmetic outside BIGINT's range is an error.
func refBinary(op Op, a, b types.Value) (types.Value, error) {
	switch {
	case op == OpAnd || op == OpOr:
		d := op == OpOr
		switch {
		case !a.Null && a.B == d || !b.Null && b.B == d:
			return types.NewBool(d), nil
		case a.Null || b.Null:
			return types.NewNull(types.Bool), nil
		}
		return types.NewBool(!d), nil
	case op.IsComparison():
		if a.Null || b.Null {
			return types.NewNull(types.Bool), nil
		}
		if a.T == types.Float64 && (math.IsNaN(a.F) || math.IsNaN(b.F)) {
			return types.NewBool(op == OpNe), nil
		}
		c := a.Compare(b)
		return types.NewBool(map[Op]bool{OpEq: c == 0, OpNe: c != 0, OpLt: c < 0, OpLe: c <= 0, OpGt: c > 0, OpGe: c >= 0}[op]), nil
	case a.Null || b.Null:
		return types.NewNull(a.T), nil
	case op == OpConcat:
		return types.NewString(a.S + b.S), nil
	case a.T == types.Float64:
		x, y := a.F, b.F
		return types.NewFloat(map[Op]float64{OpAdd: x + y, OpSub: x - y, OpMul: x * y, OpDiv: x / y,
			OpMod: math.Mod(x, y), OpPow: math.Pow(x, y)}[op]), nil
	case op == OpMod:
		if b.I == 0 {
			return types.Value{}, errors.New("modulo by zero")
		}
		return types.NewInt(a.I % b.I), nil
	}
	x, y, r := big.NewInt(a.I), big.NewInt(b.I), new(big.Int)
	switch op {
	case OpAdd:
		r.Add(x, y)
	case OpSub:
		r.Sub(x, y)
	case OpMul:
		r.Mul(x, y)
	}
	if !r.IsInt64() {
		return types.Value{}, errors.New("bigint out of range")
	}
	return types.NewInt(r.Int64()), nil
}

// sameValue is row equality for the oracle: NULL equals NULL, NaN equals
// NaN, and floats are otherwise compared bit for bit (so -0 is not +0).
func sameValue(g, w types.Value) bool {
	if g.Null || w.Null {
		return g.Null == w.Null
	}
	if g.T == types.Float64 {
		return math.IsNaN(g.F) && math.IsNaN(w.F) || math.Float64bits(g.F) == math.Float64bits(w.F)
	}
	return g == w
}

// TestKernelsMatchBoxedReference holds every arithmetic operator (BIGINT
// + - * %, DOUBLE + - * / % ^), every comparison (BIGINT, DOUBLE, VARCHAR,
// BOOLEAN), AND/OR and || to refBinary, in every operand shape —
// column∘column, column∘constant, constant∘column, constant∘constant and a
// NULL constant on either side — over random columns with NULLs, NaN, ±0,
// ±Inf and BIGINT's extremes, and over columns without a NULL bitmap.
// Results match row for row; where the reference errs on some row, the
// batch errs, and each row alone errs exactly where the reference does.
func TestKernelsMatchBoxedReference(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(25))
	type family struct {
		t, result types.Type
		ops       []Op
	}
	cmps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	families := []family{
		{types.Int64, types.Int64, []Op{OpAdd, OpSub, OpMul, OpMod}},
		{types.Float64, types.Float64, []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow}},
		{types.Int64, types.Bool, cmps}, {types.Float64, types.Bool, cmps},
		{types.String, types.Bool, cmps}, {types.Bool, types.Bool, cmps},
		{types.Bool, types.Bool, []Op{OpAnd, OpOr}}, {types.String, types.String, []Op{OpConcat}},
	}
	checked := 0
	for fi := range 2 * len(families) {
		f, nulls := families[fi/2], fi%2 == 0
		b := &types.Batch{Schema: types.Schema{{Name: "a", Type: f.t}, {Name: "b", Type: f.t}},
			Cols: []*types.Column{kernelColumn(rng, f.t, n, nulls), kernelColumn(rng, f.t, n, nulls)}}
		cols := []Expr{&ColRef{Name: "a", Index: 0, Typ: f.t}, &ColRef{Name: "b", Index: 1, Typ: f.t}}
		consts := append([]types.Value{types.NewNull(f.t)}, kernelSpecials[f.t]...)
		// operand i of a shape: a column, or constant k, row by row.
		type side struct {
			e   Expr
			val func(i int) types.Value
		}
		colSide := func(c int) side { return side{cols[c], func(i int) types.Value { return b.Cols[c].Value(i) }} }
		constSide := func(k types.Value) side { return side{&Const{Val: k}, func(int) types.Value { return k }} }
		var shapes [][2]side
		shapes = append(shapes, [2]side{colSide(0), colSide(1)})
		for _, k := range consts {
			shapes = append(shapes, [2]side{colSide(0), constSide(k)}, [2]side{constSide(k), colSide(1)},
				[2]side{constSide(k), constSide(consts[rng.Intn(len(consts))])})
		}
		for _, op := range f.ops {
			for _, sh := range shapes {
				e := &BinOp{Op: op, L: sh[0].e, R: sh[1].e, Typ: f.result}
				want := make([]types.Value, n)
				wantErr := make([]error, n)
				failing := false
				for i := range want {
					want[i], wantErr[i] = refBinary(op, sh[0].val(i), sh[1].val(i))
					failing = failing || wantErr[i] != nil
				}
				ev, err := Compile(e, nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				got, err := ev(b)
				checked++
				if !failing {
					if err != nil {
						t.Fatalf("%s: %v, the reference errs on no row", e, err)
					}
					if got.T != f.result || got.Len() != n {
						t.Fatalf("%s: %s x %d, want %s x %d", e, got.T, got.Len(), f.result, n)
					}
					for i, w := range want {
						if g := got.Value(i); !sameValue(g, w) {
							t.Fatalf("%s row %d (%v, %v): got %v, want %v", e, i, sh[0].val(i), sh[1].val(i), g, w)
						}
					}
					continue
				}
				if err == nil {
					t.Fatalf("%s: no error, the reference errs", e)
				}
				for i := range want {
					row, err := ev(b.Slice(i, i+1))
					switch {
					case (err == nil) != (wantErr[i] == nil) || err != nil && err.Error() != wantErr[i].Error():
						t.Fatalf("%s row %d (%v, %v): error %v, want %v", e, i, sh[0].val(i), sh[1].val(i), err, wantErr[i])
					case err == nil && !sameValue(row.Value(0), want[i]):
						t.Fatalf("%s row %d (%v, %v): got %v, want %v", e, i, sh[0].val(i), sh[1].val(i), row.Value(0), want[i])
					}
				}
			}
		}
	}
	t.Logf("%d operator/shape/constant cases", checked)
}

// TestNullOperandTakesTheOtherType: a bare NULL on either side of a
// comparison, an arithmetic operator or AND/OR resolves to a NULL of the
// other operand's type, and the result is NULL on every row (AND/OR: where
// the other side does not decide it). NULL <op> NULL has no type to take
// and stays an error.
func TestNullOperandTakesTheOtherType(t *testing.T) {
	null := lit(types.NewNull(types.Unknown))
	for _, e := range []Expr{
		bin(OpLt, col("y"), null), bin(OpLt, null, col("y")), bin(OpEq, col("x"), null), bin(OpEq, null, col("s")),
		bin(OpAdd, col("y"), null), bin(OpSub, null, col("x")), bin(OpMul, col("x"), null), bin(OpMod, null, col("x")),
		bin(OpDiv, col("x"), null), bin(OpOr, null, bin(OpGt, col("x"), lit(types.NewInt(5)))),
	} {
		c := evalOn(t, e)
		for i := 0; i < c.Len(); i++ {
			if !c.IsNull(i) {
				t.Errorf("%s row %d = %v, want NULL", e, i, c.Value(i))
			}
		}
	}
	if c := evalOn(t, bin(OpAnd, col("b"), null)); !c.IsNull(0) || c.IsNull(1) || c.Bools[1] || !c.IsNull(2) {
		t.Errorf("b AND NULL over b = true, false, true: %v %v, want NULL, false, NULL", c.Bools, c.Nulls)
	}
	if c := evalOn(t, bin(OpAdd, col("x"), null)); c.T != types.Int64 {
		t.Errorf("x + NULL is %s, want BIGINT", c.T)
	}
	for _, e := range []Expr{bin(OpEq, null, null), bin(OpAdd, null, null), bin(OpAnd, null, null), bin(OpLt, null, null)} {
		if _, err := Resolve(e, testCtx()); err == nil {
			t.Errorf("%s resolved; NULL <op> NULL must be an error", e)
		}
	}
}

// TestBigintArithmeticOutOfRange: BIGINT +, -, *, unary - and abs raise
// "bigint out of range" instead of wrapping — in a column, in a constant
// expression, and not for a NULL row whose slot would overflow.
func TestBigintArithmeticOutOfRange(t *testing.T) {
	max, min := lit(types.NewInt(math.MaxInt64)), lit(types.NewInt(math.MinInt64))
	for _, e := range []Expr{
		bin(OpAdd, col("x"), max), bin(OpAdd, max, lit(types.NewInt(1))), bin(OpSub, min, col("x")),
		bin(OpSub, bin(OpSub, lit(types.NewInt(0)), col("x")), max), bin(OpMul, col("x"), lit(types.NewInt(1<<62))),
		&UnOp{Op: OpNeg, E: bin(OpSub, min, bin(OpSub, col("x"), col("x")))},
		&FuncCall{Name: "abs", Args: []Expr{bin(OpAdd, min, bin(OpSub, col("x"), col("x")))}},
	} {
		r, err := Resolve(e, testCtx())
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Compile(r, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev(testBatch()); err == nil || err.Error() != "bigint out of range" {
			t.Errorf("%s: err = %v, want bigint out of range", e, err)
		}
	}
	if v, err := EvalConst(&BinOp{Op: OpAdd, L: lit(types.NewInt(math.MaxInt64 - 1)), R: lit(types.NewInt(1)), Typ: types.Int64}, nil); err != nil || v.I != math.MaxInt64 {
		t.Errorf("MaxInt64-1 + 1 = %v, %v", v, err)
	}
	b := &types.Batch{Schema: types.Schema{{Name: "x", Type: types.Int64}},
		Cols: []*types.Column{{T: types.Int64, Ints: []int64{math.MaxInt64, 1}, Nulls: []bool{true, false}}}}
	ev, err := Compile(&BinOp{Op: OpAdd, L: &ColRef{Name: "x", Index: 0, Typ: types.Int64}, R: lit(types.NewInt(1)), Typ: types.Int64}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := ev(b); err != nil || !c.IsNull(0) || c.Ints[1] != 2 {
		t.Errorf("NULL + 1 over an overflowing slot: %v, %v", c, err)
	}
}
