package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lambdadb/internal/types"
)

// selectSchema is the columns the select tests filter: a BIGINT and a
// DOUBLE with NULLs (i, f) and without (j, g).
var selectSchema = types.Schema{
	{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
	{Name: "j", Type: types.Int64}, {Name: "g", Type: types.Float64},
}

// selectBatch is n random rows of selectSchema, specials included.
func selectBatch(rng *rand.Rand, n int) *types.Batch {
	return &types.Batch{Schema: selectSchema, Cols: []*types.Column{
		kernelColumn(rng, types.Int64, n, true), kernelColumn(rng, types.Float64, n, true),
		kernelColumn(rng, types.Int64, n, false), kernelColumn(rng, types.Float64, n, false),
	}}
}

// sparse is a random ascending selection of about a third of n rows.
func sparse(rng *rand.Rand, n int) []int {
	sel := []int{}
	for i := range n {
		if rng.Intn(3) == 0 {
			sel = append(sel, i)
		}
	}
	return sel
}

// checkSelect compiles the resolved predicate e both ways and requires the
// Selector to keep exactly the rows of sel (nil: every row) where the
// evaluator's result is true — not false or NULL — and to fail exactly
// when the evaluator does.
func checkSelect(t *testing.T, name string, e Expr, args []types.Value, b *types.Batch, sel []int) (ok bool) {
	t.Helper()
	ev, err := Compile(e, args, nil)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	s, err := CompileSelect(e, args, nil)
	if err != nil {
		t.Fatalf("%s: compile select: %v", name, err)
	}
	c, evErr := ev(b)
	got, selErr := s(b, slices.Clone(sel), nil)
	if (evErr == nil) != (selErr == nil) {
		t.Fatalf("%s: evaluator error %v, selector error %v", name, evErr, selErr)
	}
	if evErr != nil {
		return false
	}
	want := []int{}
	for i := range b.Len() {
		if c.Bools[i] && !c.IsNull(i) && (sel == nil || slices.Contains(sel, i)) {
			want = append(want, i)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: selected %v, want %v", name, got, want)
	}
	return true
}

// resolveSelect resolves e over selectSchema.
func resolveSelect(t *testing.T, e Expr) Expr {
	t.Helper()
	r, err := Resolve(e, NewResolveCtx(selectSchema, "t"))
	if err != nil {
		t.Fatalf("resolve %s: %v", e, err)
	}
	return r
}

// TestSelectMatchesPredicate: a select kernel keeps exactly the rows the
// comparison it stands for is true on, of those selected on the way in, for
// every comparison operator; BIGINT and DOUBLE columns with and without
// NULLs; constants and $N of both types, NULL included, so that BIGINT
// meets DOUBLE both ways; the column on either side; NaN, ±0, ±Inf and
// BIGINT's extremes on both. AND chains that mix kernels with conjuncts
// evaluated as a whole — one of which fails on a zero divisor — keep what
// the whole predicate keeps, and fail where it fails.
func TestSelectMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	b := selectBatch(rng, 400)
	sels := map[string][]int{"all": nil, "sparse": sparse(rng, b.Len())}
	consts := append(append([]types.Value{types.NewNull(types.Int64), types.NewNull(types.Float64)},
		kernelSpecials[types.Int64]...), kernelSpecials[types.Float64]...)
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		for _, column := range selectSchema {
			for _, k := range consts {
				for _, param := range []bool{false, true} {
					for _, left := range []bool{true, false} {
						var operand Expr = lit(k)
						var args []types.Value
						if param {
							operand, args = &Param{Idx: 1, Typ: k.T}, []types.Value{k}
						}
						e := bin(op, col(column.Name), operand)
						if !left {
							e = bin(op, operand, col(column.Name))
						}
						r := resolveSelect(t, e)
						if bound, _ := bind(r, args); selectKernel(bound) == nil {
							t.Fatalf("%s is not a select kernel", r)
						}
						for selName, sel := range sels {
							checkSelect(t, fmt.Sprintf("%s [$1=%v, %s]", r, k, selName), r, args, b, sel)
						}
					}
				}
			}
		}
	}
	num := func(v float64) Expr { return lit(types.NewFloat(v)) }
	ival := func(v int64) Expr { return lit(types.NewInt(v)) }
	and := func(es ...Expr) Expr {
		e := es[0]
		for _, x := range es[1:] {
			e = bin(OpAnd, e, x)
		}
		return e
	}
	p1 := &Param{Idx: 1, Typ: types.Float64}
	mod := bin(OpEq, bin(OpMod, col("j"), col("i")), ival(1)) // fails where i is 0
	chains := []struct {
		e     Expr
		fails bool
	}{
		{e: and(bin(OpLt, col("f"), num(0.5)), bin(OpGe, col("j"), ival(-3)))},
		{e: and(bin(OpLt, col("f"), num(0.5)),
			bin(OpOr, bin(OpEq, bin(OpMod, col("i"), ival(3)), ival(1)), &IsNull{E: col("f")}),
			bin(OpGe, col("j"), p1))},
		// Every conjunct is evaluated over every row.
		{e: and(bin(OpNe, col("i"), ival(0)), mod), fails: true},
		{e: and(bin(OpGt, col("g"), p1), bin(OpNe, col("i"), ival(0)), mod), fails: true},
		{e: and(bin(OpGe, col("g"), num(0)), lit(types.NewBool(true)), bin(OpLt, col("i"), ival(5)))},
		// FALSE settles the AND it is an operand of, and only that one.
		{e: and(lit(types.NewBool(false)), mod)},
		{e: and(mod, lit(types.NewBool(false)))},
		{e: and(and(bin(OpGt, col("f"), num(0)), lit(types.NewBool(false))), mod), fails: true},
		{e: and(&UnOp{Op: OpNot, E: bin(OpLt, col("g"), num(1))}, bin(OpNe, col("f"), num(2)), &IsNull{E: col("i"), Negate: true})},
		{e: and(bin(OpEq, col("f"), col("f")), bin(OpEq, col("j"), col("j")), bin(OpNe, col("g"), num(1e300)))},
		{e: and(bin(OpLt, col("g"), lit(types.NewNull(types.Unknown))), bin(OpLt, col("f"), p1))},
	}
	for _, c := range chains {
		r := resolveSelect(t, c.e)
		for _, k := range []types.Value{types.NewFloat(0), types.NewFloat(math.NaN()), types.NewNull(types.Float64)} {
			for selName, sel := range sels {
				name := fmt.Sprintf("%s [$1=%v, %s]", r, k, selName)
				if ok := checkSelect(t, name, r, []types.Value{k}, b, sel); ok == c.fails {
					t.Fatalf("%s: failed %v, want %v", name, !ok, c.fails)
				}
			}
		}
	}
}

// FuzzSelectMatchesPredicate is TestSelectMatchesPredicate's check on
// random columns and a random constant, compared by every operator from
// either side, as a literal and as a $N.
func FuzzSelectMatchesPredicate(f *testing.F) {
	f.Add(int64(1), uint8(0), uint64(0), false)
	f.Add(int64(2), uint8(13), math.Float64bits(math.NaN()), true)
	f.Add(int64(3), uint8(7), uint64(math.MaxInt64), false)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, bits uint64, float bool) {
		rng := rand.New(rand.NewSource(seed))
		b := selectBatch(rng, 1+rng.Intn(300))
		k := types.NewInt(int64(bits))
		if float {
			k = types.NewFloat(math.Float64frombits(bits))
		}
		op := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[shape%6]
		column := col(selectSchema[shape/6%4].Name)
		var operand Expr = lit(k)
		var args []types.Value
		if shape/24%2 == 1 {
			operand, args = &Param{Idx: 1, Typ: k.T}, []types.Value{k}
		}
		e := bin(op, column, operand)
		if shape/48%2 == 1 {
			e = bin(op, operand, column)
		}
		r := resolveSelect(t, e)
		for _, sel := range [][]int{nil, sparse(rng, b.Len())} {
			checkSelect(t, r.String(), r, args, b, sel)
		}
	})
}
