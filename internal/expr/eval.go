package expr

import (
	"fmt"
	"math"

	"lambdadb/internal/types"
)

// Evaluator computes one column from an input batch. Returned columns may
// alias input storage (for bare column references); callers must not mutate
// them.
type Evaluator func(*types.Batch) (*types.Column, error)

// Compile translates a resolved expression tree into a tree of closures.
// Each closure is specialized to its operand types, so batch evaluation
// performs no per-row type dispatch — the reproduction's analog of HyPer's
// compiled query pipelines.
func Compile(e Expr) (Evaluator, error) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		return func(b *types.Batch) (*types.Column, error) {
			return types.ConstColumn(v, b.Len()), nil
		}, nil

	case *ColRef:
		if n.Index < 0 {
			return nil, fmt.Errorf("unresolved column reference %s", n)
		}
		idx := n.Index
		return func(b *types.Batch) (*types.Column, error) {
			if idx >= len(b.Cols) {
				return nil, fmt.Errorf("column index %d out of range (batch has %d)", idx, len(b.Cols))
			}
			return b.Cols[idx], nil
		}, nil

	case *Param:
		return nil, fmt.Errorf("unbound parameter $%d (parameters are only valid in prepared statements)", n.Idx)

	case *Cast:
		return compileCast(n)

	case *BinOp:
		return compileBinOp(n)

	case *UnOp:
		return compileUnOp(n)

	case *FuncCall:
		return compileFunc(n)

	case *Case:
		return compileCase(n)

	case *Like:
		return compileLike(n)

	case *IsNull:
		inner, err := Compile(n.E)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(b *types.Batch) (*types.Column, error) {
			c, err := inner(b)
			if err != nil {
				return nil, err
			}
			n := c.Len()
			out := &types.Column{T: types.Bool, Bools: make([]bool, n)}
			for i := 0; i < n; i++ {
				out.Bools[i] = c.IsNull(i) != negate
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("cannot compile expression %T", e)
}

func compileCast(n *Cast) (Evaluator, error) {
	inner, err := Compile(n.E)
	if err != nil {
		return nil, err
	}
	from, to := n.E.Type(), n.To
	if from == to {
		return inner, nil
	}
	return func(b *types.Batch) (*types.Column, error) {
		c, err := inner(b)
		if err != nil {
			return nil, err
		}
		return castColumn(c, to)
	}, nil
}

// castColumn converts a column. Numeric-to-numeric and boolean-to-integer
// casts run as one typed loop and share the source's null bitmap (what a
// NULL row's slot holds is never read); everything else goes value by value
// through castValue, which defines the conversion for both paths.
func castColumn(c *types.Column, to types.Type) (*types.Column, error) {
	n := c.Len()
	switch {
	case c.T == types.Int64 && to == types.Float64:
		out := &types.Column{T: to, Floats: make([]float64, n), Nulls: c.Nulls}
		for i, v := range c.Ints {
			out.Floats[i] = float64(v)
		}
		return out, nil
	case c.T == types.Float64 && to == types.Int64:
		out := &types.Column{T: to, Ints: make([]int64, n), Nulls: c.Nulls}
		for i, v := range c.Floats {
			out.Ints[i] = int64(v)
		}
		return out, nil
	case c.T == types.Bool && to == types.Int64:
		out := &types.Column{T: to, Ints: make([]int64, n), Nulls: c.Nulls}
		for i, v := range c.Bools {
			if v {
				out.Ints[i] = 1
			}
		}
		return out, nil
	}
	out := types.NewColumn(to, n)
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			out.AppendNull()
			continue
		}
		v, err := castValue(c.Value(i), to)
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

func castValue(v types.Value, to types.Type) (types.Value, error) {
	switch to {
	case types.Float64:
		if v.T.IsNumeric() {
			return types.NewFloat(v.AsFloat()), nil
		}
	case types.Int64:
		if v.T.IsNumeric() {
			return types.NewInt(v.AsInt()), nil
		}
		if v.T == types.Bool {
			if v.B {
				return types.NewInt(1), nil
			}
			return types.NewInt(0), nil
		}
	case types.String:
		return types.NewString(v.String()), nil
	case types.Bool:
		if v.T == types.Bool {
			return v, nil
		}
	}
	return types.Value{}, fmt.Errorf("cannot cast %s to %s", v.T, to)
}

// mergeNulls returns the NULLs of a row-wise result of two columns: one
// bitmap when the other is nil (results are read-only, so it is shared),
// else their elementwise OR.
func mergeNulls(a, b []bool) []bool {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := make([]bool, len(a))
	for i := range out {
		out[i] = a[i] || b[i]
	}
	return out
}

func compileBinOp(n *BinOp) (Evaluator, error) {
	op := n.Op
	switch {
	case op == OpAnd || op == OpOr:
		return compileLogic(op, n.L, n.R)
	case !op.IsComparison() && !op.IsArith() && op != OpConcat:
		return nil, fmt.Errorf("cannot compile operator %s", op)
	case isNullConst(n.L) || isNullConst(n.R):
		// A NULL operand makes every row NULL; it has the other side's type.
		return Compile(&Const{Val: types.NewNull(n.Typ)})
	case op == OpPow && constPow(n.R) != nil:
		l, err := Compile(n.L)
		if err != nil {
			return nil, err
		}
		return mapFloats(l, constPow(n.R)), nil
	}
	if op.IsComparison() && n.L.Type() == types.Bool {
		return compileBinOp(&BinOp{Op: op, L: asBigint(n.L), R: asBigint(n.R), Typ: types.Bool})
	}
	lo, ro, err := compileOperands(n.L, n.R)
	if err != nil {
		return nil, err
	}
	if op.IsComparison() {
		return compileCompare(op, n.L.Type(), lo, ro)
	}
	return compileArith(op, n.Typ, lo, ro)
}

func isNullConst(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.Val.Null
}

func evalPair(l, r Evaluator, b *types.Batch) (*types.Column, *types.Column, error) {
	lc, err := l(b)
	if err != nil {
		return nil, nil, err
	}
	rc, err := r(b)
	if err != nil {
		return nil, nil, err
	}
	return lc, rc, nil
}

// constPow returns x ^ k as a function of x when the exponent k is a
// constant that needs no math.Pow, and nil otherwise. x ^ 2 is a multiply —
// except where the square is subnormal: Pow computes it on the mantissa and
// scales afterwards, rounding once where x*x rounds twice — x ^ 1 is x, and
// x ^ 0 is 1 (for NaN too).
func constPow(k Expr) func(x float64) float64 {
	if !IsConst(k) {
		return nil
	}
	v, err := EvalConst(k)
	if err != nil || v.Null {
		return nil
	}
	switch v.AsFloat() {
	case 2:
		return func(x float64) float64 {
			if sq := x * x; !(sq < 0x1p-1022) {
				return sq
			}
			return math.Pow(x, 2)
		}
	case 1:
		return func(x float64) float64 { return x }
	case 0:
		return func(float64) float64 { return 1 }
	}
	return nil
}

func compileUnOp(n *UnOp) (Evaluator, error) {
	if n.Op == OpNeg { // -x is x * -1 exactly, -0 and BIGINT's range included
		minusOne, _ := castValue(types.NewInt(-1), n.Typ)
		return compileBinOp(&BinOp{Op: OpMul, L: n.E, R: &Const{Val: minusOne}, Typ: n.Typ})
	}
	inner, err := Compile(n.E)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case OpNot:
		return func(b *types.Batch) (*types.Column, error) {
			c, err := inner(b)
			if err != nil {
				return nil, err
			}
			cnt := c.Len()
			out := &types.Column{T: types.Bool, Bools: make([]bool, cnt), Nulls: c.Nulls}
			for i := 0; i < cnt; i++ {
				out.Bools[i] = !c.Bools[i]
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("cannot compile unary operator %s", n.Op)
}

func compileCase(n *Case) (Evaluator, error) {
	conds := make([]Evaluator, len(n.Whens))
	thens := make([]Evaluator, len(n.Whens))
	for i, w := range n.Whens {
		var err error
		if conds[i], err = Compile(w.Cond); err != nil {
			return nil, err
		}
		if thens[i], err = Compile(w.Then); err != nil {
			return nil, err
		}
	}
	var els Evaluator
	if n.Else != nil {
		var err error
		if els, err = Compile(n.Else); err != nil {
			return nil, err
		}
	}
	t := n.Typ
	return func(b *types.Batch) (*types.Column, error) {
		cnt := b.Len()
		// decided[i] = arm index + 1, 0 = undecided.
		decided := make([]int, cnt)
		remaining := cnt
		for a := range conds {
			if remaining == 0 {
				break
			}
			cc, err := conds[a](b)
			if err != nil {
				return nil, err
			}
			for i := 0; i < cnt; i++ {
				if decided[i] == 0 && !cc.IsNull(i) && cc.Bools[i] {
					decided[i] = a + 1
					remaining--
				}
			}
		}
		armCols := make([]*types.Column, len(thens))
		for a, th := range thens {
			c, err := th(b)
			if err != nil {
				return nil, err
			}
			armCols[a] = c
		}
		var elseCol *types.Column
		if els != nil {
			c, err := els(b)
			if err != nil {
				return nil, err
			}
			elseCol = c
		}
		out := types.NewColumn(t, cnt)
		for i := 0; i < cnt; i++ {
			switch {
			case decided[i] > 0:
				out.Append(armCols[decided[i]-1].Value(i))
			case elseCol != nil:
				out.Append(elseCol.Value(i))
			default:
				out.AppendNull()
			}
		}
		return out, nil
	}, nil
}

// mapFloats applies f to every row of a DOUBLE argument; NULLs stay NULL.
func mapFloats(arg Evaluator, f func(float64) float64) Evaluator {
	return func(b *types.Batch) (*types.Column, error) {
		c, err := arg(b)
		if err != nil {
			return nil, err
		}
		out := &types.Column{T: types.Float64, Floats: make([]float64, c.Len()), Nulls: c.Nulls}
		for i, x := range c.Floats {
			out.Floats[i] = f(x)
		}
		return out, nil
	}
}

func compileFunc(n *FuncCall) (Evaluator, error) {
	if AggregateFuncs[n.Name] {
		return nil, fmt.Errorf("aggregate %s evaluated outside GROUP BY context", n.Name)
	}
	switch last := len(n.Args) - 1; n.Name {
	case "pow", "power":
		return compileBinOp(&BinOp{Op: OpPow, L: n.Args[0], R: n.Args[1], Typ: types.Float64})
	case "coalesce": // the first argument that is not NULL
		c := &Case{Else: castTo(n.Args[last], n.Typ), Typ: n.Typ}
		for _, a := range n.Args[:last] {
			c.Whens = append(c.Whens, When{Cond: &IsNull{E: a, Negate: true}, Then: castTo(a, n.Typ)})
		}
		return compileCase(c)
	}
	args := make([]Evaluator, len(n.Args))
	for i, a := range n.Args {
		ev, err := Compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	name := n.Name
	if f := scalarFloatFunc(name); f != nil && len(args) == 1 && n.Typ == types.Float64 {
		return mapFloats(args[0], f), nil
	}
	switch name {
	case "abs", "sign":
		// Integer-typed abs/sign.
		arg := args[0]
		return func(b *types.Batch) (*types.Column, error) {
			c, err := arg(b)
			if err != nil {
				return nil, err
			}
			cnt := c.Len()
			out := &types.Column{T: types.Int64, Ints: make([]int64, cnt), Nulls: c.Nulls}
			for i := 0; i < cnt; i++ {
				v := c.Ints[i]
				if name == "abs" {
					if v == math.MinInt64 && !c.IsNull(i) {
						return nil, errBigintRange
					}
					if v < 0 {
						v = -v
					}
				} else {
					switch {
					case v > 0:
						v = 1
					case v < 0:
						v = -1
					}
				}
				out.Ints[i] = v
			}
			return out, nil
		}, nil
	case "least", "greatest":
		want := -1 // comparison direction
		if name == "greatest" {
			want = 1
		}
		t := n.Typ
		return func(b *types.Batch) (*types.Column, error) {
			cols := make([]*types.Column, len(args))
			for i, a := range args {
				c, err := a(b)
				if err != nil {
					return nil, err
				}
				cols[i] = c
			}
			cnt := b.Len()
			out := types.NewColumn(t, cnt)
			for i := 0; i < cnt; i++ {
				var best types.Value
				haveBest := false
				null := false
				for _, c := range cols {
					if c.IsNull(i) {
						null = true
						break
					}
					v := c.Value(i)
					if !haveBest || v.Compare(best) == want {
						best, haveBest = v, true
					}
				}
				if null {
					out.AppendNull()
				} else {
					bv, err := castValue(best, t)
					if err != nil {
						return nil, err
					}
					out.Append(bv)
				}
			}
			return out, nil
		}, nil
	case "length", "lower", "upper", "substr":
		return compileStringFunc(name, args)
	}
	return nil, fmt.Errorf("unknown function %q", name)
}

func compileStringFunc(name string, args []Evaluator) (Evaluator, error) {
	return func(b *types.Batch) (*types.Column, error) {
		cols := make([]*types.Column, len(args))
		for i, a := range args {
			c, err := a(b)
			if err != nil {
				return nil, err
			}
			cols[i] = c
		}
		cnt := b.Len()
		var out *types.Column
		if name == "length" {
			out = &types.Column{T: types.Int64, Ints: make([]int64, cnt)}
		} else {
			out = &types.Column{T: types.String, Strs: make([]string, cnt)}
		}
		out.Nulls = cols[0].Nulls
		for i := 0; i < cnt; i++ {
			if cols[0].IsNull(i) {
				continue
			}
			s := cols[0].Strs[i]
			switch name {
			case "length":
				out.Ints[i] = int64(len(s))
			case "lower":
				out.Strs[i] = toLower(s)
			case "upper":
				out.Strs[i] = toUpper(s)
			case "substr":
				start := int(cols[1].Ints[i]) - 1 // SQL is 1-based
				if start < 0 {
					start = 0
				}
				end := len(s)
				if len(cols) == 3 {
					if e := start + int(cols[2].Ints[i]); e < end {
						end = e
					}
				}
				if start > len(s) {
					start = len(s)
				}
				if end < start {
					end = start
				}
				out.Strs[i] = s[start:end]
			}
		}
		return out, nil
	}, nil
}

func toLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

func toUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 32
		}
	}
	return string(b)
}

func compileLike(n *Like) (Evaluator, error) {
	inner, err := Compile(n.E)
	if err != nil {
		return nil, err
	}
	pattern, negate := n.Pattern, n.Negate
	return func(b *types.Batch) (*types.Column, error) {
		c, err := inner(b)
		if err != nil {
			return nil, err
		}
		cnt := c.Len()
		out := &types.Column{T: types.Bool, Bools: make([]bool, cnt), Nulls: c.Nulls}
		for i := 0; i < cnt; i++ {
			if c.IsNull(i) {
				continue
			}
			out.Bools[i] = MatchLike(c.Strs[i], pattern) != negate
		}
		return out, nil
	}, nil
}

// MatchLike implements SQL LIKE matching: % matches any byte sequence,
// _ matches exactly one byte. The classic two-pointer algorithm backtracks
// to the most recent %.
func MatchLike(s, pattern string) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// EvalConst evaluates a constant-foldable expression to a scalar value.
func EvalConst(e Expr) (types.Value, error) {
	// Bare literals (including untyped NULL) need no compilation.
	if c, ok := e.(*Const); ok {
		return c.Val, nil
	}
	ev, err := Compile(e)
	if err != nil {
		return types.Value{}, err
	}
	// A one-row dummy batch drives the evaluation.
	b := &types.Batch{Schema: types.Schema{{Name: "dummy", Type: types.Int64}},
		Cols: []*types.Column{{T: types.Int64, Ints: []int64{0}}}}
	c, err := ev(b)
	if err != nil {
		return types.Value{}, err
	}
	if c.Len() != 1 {
		return types.Value{}, fmt.Errorf("constant expression produced %d rows", c.Len())
	}
	return c.Value(0), nil
}

// IsConst reports whether e references no columns or parameters.
func IsConst(e Expr) bool {
	constant := true
	Walk(e, func(n Expr) bool {
		switch n.(type) {
		case *ColRef:
			constant = false
			return false
		}
		return true
	})
	return constant
}
