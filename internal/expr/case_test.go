package expr

import (
	"math"
	"math/rand"
	"testing"

	"lambdadb/internal/types"
)

// refEval evaluates the resolved e on row r of b, boxed, row by row and
// lazily, as PostgreSQL defines it: a CASE evaluates its WHENs in order and
// then only the arm that decides the row, coalesce its arguments up to the
// first that is not NULL; least and greatest skip NULL arguments and put
// NaN above every number; abs, sign and sqrt are NULL where their argument
// is (refStrict). Operators are refBinary's, and NULL without a look at the
// other operand where one is a NULL constant.
func refEval(e Expr, b *types.Batch, r int) (types.Value, error) {
	switch n := e.(type) {
	case *Const:
		return n.Val, nil
	case *ColRef:
		return b.Cols[n.Index].Value(r), nil
	case *IsNull:
		v, err := refEval(n.E, b, r)
		return types.NewBool(v.Null != n.Negate), err
	case *Cast:
		v, err := refEval(n.E, b, r)
		switch {
		case err != nil || v.Null:
			return types.NewNull(n.To), err
		case n.To == types.Float64:
			return types.NewFloat(v.AsFloat()), nil
		}
		x, ok := types.FloatToInt(v.F)
		if !ok {
			return types.Value{}, types.ErrBigintRange
		}
		return types.NewInt(x), nil
	case *BinOp:
		if n.Op != OpAnd && n.Op != OpOr && (isNullConst(n.L) || isNullConst(n.R)) {
			return types.NewNull(n.Typ), nil // folded, as PostgreSQL folds a strict operator of a NULL
		}
		l, err := refEval(n.L, b, r)
		if err != nil {
			return l, err
		}
		rv, err := refEval(n.R, b, r)
		if err != nil {
			return rv, err
		}
		return refBinary(n.Op, l, rv)
	case *Case:
		for _, w := range n.Whens {
			c, err := refEval(w.Cond, b, r)
			if err != nil {
				return c, err
			}
			if !c.Null && c.B {
				return refEval(w.Then, b, r)
			}
		}
		if n.Else == nil {
			return types.NewNull(n.Typ), nil
		}
		return refEval(n.Else, b, r)
	case *FuncCall:
		if f := refStrict[n.Name]; f != nil {
			v, err := refEval(n.Args[0], b, r)
			if err != nil || v.Null {
				return types.NewNull(n.Typ), err
			}
			return f(v)
		}
		best := types.NewNull(n.Typ)
		for _, a := range n.Args {
			v, err := refEval(a, b, r)
			if err != nil {
				return v, err
			}
			if v.Null {
				continue
			}
			if n.Typ == types.Float64 {
				v = types.NewFloat(v.AsFloat())
			}
			switch {
			case n.Name == "coalesce":
				return v, nil
			case best.Null, n.Name == "least" && refBefore(v, best), n.Name == "greatest" && refBefore(best, v):
				best = v
			}
		}
		return best, nil
	}
	panic("refEval: " + e.String())
}

// refStrict holds abs, sign and sqrt of a value that is not NULL.
var refStrict = map[string]func(types.Value) (types.Value, error){
	"abs": func(v types.Value) (types.Value, error) {
		switch {
		case v.T == types.Float64:
			return types.NewFloat(math.Abs(v.F)), nil
		case v.I == math.MinInt64:
			return v, types.ErrBigintRange
		case v.I < 0:
			return types.NewInt(-v.I), nil
		}
		return v, nil
	},
	"sign": func(v types.Value) (types.Value, error) {
		s := 0 // for ±0 and NaN too
		switch {
		case v.AsFloat() > 0:
			s = 1
		case v.AsFloat() < 0:
			s = -1
		}
		if v.T == types.Float64 {
			return types.NewFloat(float64(s)), nil
		}
		return types.NewInt(int64(s)), nil
	},
	"sqrt": func(v types.Value) (types.Value, error) { return types.NewFloat(math.Sqrt(v.F)), nil },
}

// refBefore reports whether x sorts before y, NaN after every number.
func refBefore(x, y types.Value) bool {
	if x.T == types.Int64 {
		return x.I < y.I
	}
	return !math.IsNaN(x.F) && (math.IsNaN(y.F) || x.F < y.F)
}

// randNumeric is a random numeric expression over selectSchema of at most
// depth levels: columns, constants, untyped NULLs, %, +, *, CAST AS BIGINT,
// coalesce, least, greatest, abs, sign, sqrt and CASE. An untyped NULL takes
// the type its position asks for; where every operand of an operator, or
// every argument of coalesce, would be one, the first is a column instead,
// as no position gives them a type (oneTyped).
func randNumeric(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return lit(types.NewNull(types.Unknown))
		case 1, 2:
			t := []types.Type{types.Int64, types.Float64}[rng.Intn(2)]
			return lit(kernelSpecials[t][rng.Intn(len(kernelSpecials[t]))])
		}
		return randCol(rng)
	}
	args := func() []Expr {
		out := []Expr{randNumeric(rng, depth-1), randNumeric(rng, depth-1)}
		if rng.Intn(3) == 0 {
			out = append(out, randNumeric(rng, depth-1))
		}
		return out
	}
	switch rng.Intn(6) {
	case 0:
		lr := oneTyped(rng, randNumeric(rng, depth-1), randNumeric(rng, depth-1))
		return bin([]Op{OpMod, OpAdd, OpMul}[rng.Intn(3)], lr[0], lr[1])
	case 1:
		return &Cast{E: randNumeric(rng, depth-1), To: types.Int64}
	case 2:
		name := []string{"coalesce", "least", "greatest"}[rng.Intn(3)]
		if name == "coalesce" {
			return &FuncCall{Name: name, Args: oneTyped(rng, args()...)}
		}
		return &FuncCall{Name: name, Args: args()}
	case 3:
		return &FuncCall{Name: []string{"abs", "sign", "sqrt"}[rng.Intn(3)], Args: []Expr{randNumeric(rng, depth-1)}}
	}
	return randCase(rng, depth-1)
}

func randCol(rng *rand.Rand) Expr { return col(selectSchema[rng.Intn(len(selectSchema))].Name) }

// oneTyped returns es, its first a column where every one of es is an
// untyped NULL.
func oneTyped(rng *rand.Rand, es ...Expr) []Expr {
	for _, e := range es {
		if c, ok := e.(*Const); !ok || c.Val.T != types.Unknown {
			return es
		}
	}
	es[0] = randCol(rng)
	return es
}

// randCase is a random CASE of one to three WHENs, with an ELSE or not, of
// which some arm is not an untyped NULL.
func randCase(rng *rand.Rand, depth int) Expr {
	c := &Case{}
	var arms []Expr
	for range 1 + rng.Intn(3) {
		var cond Expr = &IsNull{E: randNumeric(rng, depth), Negate: rng.Intn(2) == 0}
		if rng.Intn(3) > 0 {
			lr := oneTyped(rng, randNumeric(rng, depth), randNumeric(rng, depth))
			cond = bin([]Op{OpEq, OpNe, OpLt, OpGt}[rng.Intn(4)], lr[0], lr[1])
		}
		c.Whens = append(c.Whens, When{Cond: cond})
		arms = append(arms, randNumeric(rng, depth))
	}
	if rng.Intn(3) > 0 {
		arms = append(arms, randNumeric(rng, depth))
	}
	arms = oneTyped(rng, arms...)
	for i := range c.Whens {
		c.Whens[i].Then = arms[i]
	}
	if len(arms) > len(c.Whens) {
		c.Else = arms[len(c.Whens)]
	}
	return c
}

// FuzzCaseMatchesRowwise holds a random CASE, evaluated over a whole batch
// of random columns — NULL, 0, BIGINT's extremes, NaN, ±Inf and 1e300
// among them — and over a random selection of it, to refEval on each
// selected row: the values are equal bit for bit, and the batch fails
// exactly when some selected row fails.
func FuzzCaseMatchesRowwise(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		b := selectBatch(rng, 1+rng.Intn(200))
		e := resolveSelect(t, randCase(rng, 2))
		var s types.Scratch
		ev, err := Compile(e, nil, &s)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for _, sel := range [][]int{nil, sparse(rng, b.Len()), {}} {
			rows := sel
			if sel == nil {
				for r := range b.Len() {
					rows = append(rows, r)
				}
			}
			want, wantErr := make([]types.Value, len(rows)), error(nil)
			for j, r := range rows {
				var err error
				if want[j], err = refEval(e, b, r); err != nil && wantErr == nil {
					wantErr = err
				}
			}
			got, err := ev(&types.Batch{Cols: b.Cols, Sel: sel})
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s over %d rows: error %v, the reference's %v", e, len(rows), err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.T != e.Type() || got.Len() != len(rows) {
				t.Fatalf("%s: %s x %d, want %s x %d", e, got.T, got.Len(), e.Type(), len(rows))
			}
			for j, w := range want {
				if g := got.Value(j); g.Null != w.Null || !w.Null && (g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F)) {
					t.Fatalf("%s, row %d: got %v, want %v", e, rows[j], g, w)
				}
			}
		}
	})
}

// TestCaseAllocatesNothingPerRow: a compiled CASE, coalesce, least or
// greatest writes into buffers it keeps, so what a call allocates does not
// grow with the batch — over a whole batch and over a selection of it.
func TestCaseAllocatesNothingPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	num := func(v float64) Expr { return lit(types.NewFloat(v)) }
	exprs := []Expr{
		&Case{Whens: []When{{Cond: bin(OpLt, col("f"), num(0.5)), Then: col("g")}}, Else: col("j")},
		&Case{Whens: []When{{Cond: &IsNull{E: col("i")}, Then: num(0)}, {Cond: bin(OpGt, col("i"), col("j")), Then: col("i")}}},
		&FuncCall{Name: "coalesce", Args: []Expr{col("f"), col("g"), num(0)}},
		&FuncCall{Name: "least", Args: []Expr{col("i"), col("j"), lit(types.NewInt(3))}},
		&FuncCall{Name: "greatest", Args: []Expr{col("f"), col("g")}},
	}
	for _, e := range exprs {
		r := resolveSelect(t, e)
		allocs := map[bool][]float64{}
		for _, n := range []int{1024, 4096} {
			b := selectBatch(rng, n)
			var s types.Scratch
			ev, err := Compile(r, nil, &s)
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range [][]int{nil, sparse(rng, n)} {
				b.Sel = sel
				allocs[sel != nil] = append(allocs[sel != nil], testing.AllocsPerRun(10, func() {
					if _, err := ev(b); err != nil {
						t.Fatal(err)
					}
				}))
			}
		}
		for selected, a := range allocs {
			if a[0] != a[1] {
				t.Errorf("%s (selection %v): %v allocations at 1024 rows, %v at 4096", r, selected, a[0], a[1])
			}
		}
	}
}
