package expr

import (
	"fmt"
	"math"
	"slices"

	"lambdadb/internal/types"
)

// Evaluator computes one column from an input batch. The column is
// borrowed like a batch from an operator's Next: it is valid until the
// evaluator's next call, and a caller that keeps it past that keeps it
// through types.Retain. It may be an input column (a bare column reference),
// a Reused buffer or a fresh column; callers never mutate it. An Evaluator
// owns the buffers of its inner nodes, so it is not safe for concurrent use:
// every goroutine compiles its own.
type Evaluator func(*types.Batch) (*types.Column, error)

// Compile translates a resolved expression tree into a tree of closures.
// Each closure is specialized to its operand types, so batch evaluation
// performs no per-row type dispatch — the reproduction's analog of HyPer's
// compiled query pipelines. The root returns a fresh column, or an input
// column it passes through. An inner node's only reader is its parent
// kernel, and a node's inputs are dead once it has run, so each inner node
// writes into a Buffer of its own, reused from call to call.
func Compile(e Expr) (Evaluator, error) { return CompileScratch(e, nil) }

// CompileScratch is Compile with the inner nodes' buffers drawn from s, so
// that their owner can book them and, after s.Rewind, hand them to the
// evaluator it compiles next.
func CompileScratch(e Expr, s *types.Scratch) (Evaluator, error) {
	return (&compiler{scratch: s}).compile(e, false)
}

// CompileLent is CompileScratch for a caller that reads each result before
// the next call and keeps nothing of it — a predicate, a key, an aggregate's
// argument: the root writes into a buffer from s too.
func CompileLent(e Expr, s *types.Scratch) (Evaluator, error) {
	return (&compiler{scratch: s}).compile(e, true)
}

// compiler compiles one tree, drawing inner nodes' buffers from scratch.
type compiler struct{ scratch *types.Scratch }

// result is where a node writes its output: a fresh column per call at the
// root (buf nil), one Buffer reused across calls at an inner node.
type result struct{ buf *types.Buffer }

func (c *compiler) result(inner bool) result {
	if !inner {
		return result{}
	}
	return result{buf: c.scratch.Buffer()}
}

// column returns the output column for n rows of type t, without NULLs.
func (r result) column(t types.Type, n int) *types.Column {
	if r.buf != nil {
		return r.buf.Reset(t, n)
	}
	out := &types.Column{T: t}
	switch t {
	case types.Int64:
		out.Ints = make([]int64, n)
	case types.Float64:
		out.Floats = make([]float64, n)
	case types.String:
		out.Strs = make([]string, n)
	case types.Bool:
		out.Bools = make([]bool, n)
	default:
		out.Nulls = make([]bool, n)
	}
	return out
}

// ownNulls gives out, of n rows, a NULL bitmap of its own for the caller to
// fill.
func (r result) ownNulls(out *types.Column, n int) []bool {
	if r.buf != nil {
		return r.buf.Nulls(n)
	}
	out.Nulls = make([]bool, n)
	return out.Nulls
}

// nulls sets the NULLs of out, a row-wise result of a and b (b may be nil),
// to the OR of theirs. When only one has NULLs its bitmap is shared —
// results are read-only — unless out is fresh and the bitmap reused
// storage, which a fresh column must not hold; then, as when both have
// NULLs, the bitmap is written to out's own.
func (r result) nulls(out *types.Column, n int, a, b *types.Column) {
	a, b = orNone(a), orNone(b)
	an, bn := a.Nulls, b.Nulls
	switch {
	case an == nil && bn == nil:
		return
	case bn == nil && (r.buf != nil || !a.Reused):
		out.Nulls = an
		return
	case an == nil && (r.buf != nil || !b.Reused):
		out.Nulls = bn
		return
	}
	dst := r.ownNulls(out, n)
	for i := range dst {
		dst[i] = isNull(an, i) || isNull(bn, i)
	}
}

// orNone is c, or noColumn for nil.
func orNone(c *types.Column) *types.Column {
	if c == nil {
		return &noColumn
	}
	return c
}

// compile compiles e; inner says whether its only reader is a parent
// kernel. A node that passes a child's output through compiles the child
// as what it is itself.
func (c *compiler) compile(e Expr, inner bool) (Evaluator, error) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		if !inner {
			return func(b *types.Batch) (*types.Column, error) {
				return types.ConstColumn(v, b.Len()), nil
			}, nil
		}
		buf := c.result(true).buf
		return func(b *types.Batch) (*types.Column, error) {
			return buf.Const(v, b.Len()), nil
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
		return c.compileCast(n, inner)

	case *BinOp:
		return c.compileBinOp(n, inner)

	case *UnOp:
		return c.compileUnOp(n, inner)

	case *FuncCall:
		return c.compileFunc(n, inner)

	case *Case:
		return c.compileCase(n)

	case *Like:
		return c.compileLike(n, inner)

	case *IsNull:
		arg, err := c.compile(n.E, true)
		if err != nil {
			return nil, err
		}
		negate, res := n.Negate, c.result(inner)
		return func(b *types.Batch) (*types.Column, error) {
			in, err := arg(b)
			if err != nil {
				return nil, err
			}
			cnt := in.Len()
			out := res.column(types.Bool, cnt)
			for i := range out.Bools {
				out.Bools[i] = in.IsNull(i) != negate
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("cannot compile expression %T", e)
}

func (c *compiler) compileCast(n *Cast, inner bool) (Evaluator, error) {
	from, to := n.E.Type(), n.To
	if from == to {
		return c.compile(n.E, inner)
	}
	arg, err := c.compile(n.E, true)
	if err != nil {
		return nil, err
	}
	res := c.result(inner)
	return func(b *types.Batch) (*types.Column, error) {
		in, err := arg(b)
		if err != nil {
			return nil, err
		}
		return castColumn(res, in, to)
	}, nil
}

// castColumn converts a column. Numeric-to-numeric and boolean-to-integer
// casts run as one typed loop into res and keep the source's NULLs (what a
// NULL row's slot holds is never read); everything else goes value by value
// through castValue, which defines the conversion for both paths, into a
// fresh column.
func castColumn(res result, c *types.Column, to types.Type) (*types.Column, error) {
	n := c.Len()
	switch {
	case c.T == types.Int64 && to == types.Float64:
		out := res.column(to, n)
		for i, v := range c.Ints {
			out.Floats[i] = float64(v)
		}
		res.nulls(out, n, c, nil)
		return out, nil
	case c.T == types.Float64 && to == types.Int64:
		out := res.column(to, n)
		for i, v := range c.Floats {
			out.Ints[i] = int64(v)
		}
		res.nulls(out, n, c, nil)
		return out, nil
	case c.T == types.Bool && to == types.Int64:
		out := res.column(to, n)
		for i, v := range c.Bools {
			out.Ints[i] = 0
			if v {
				out.Ints[i] = 1
			}
		}
		res.nulls(out, n, c, nil)
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

func (c *compiler) compileBinOp(n *BinOp, inner bool) (Evaluator, error) {
	op := n.Op
	switch {
	case op == OpAnd || op == OpOr:
		return c.compileLogic(op, n.L, n.R, inner)
	case !op.IsComparison() && !op.IsArith() && op != OpConcat:
		return nil, fmt.Errorf("cannot compile operator %s", op)
	case isNullConst(n.L) || isNullConst(n.R):
		// A NULL operand makes every row NULL; it has the other side's type.
		return c.compile(&Const{Val: types.NewNull(n.Typ)}, inner)
	case op == OpPow && constPow(n.R) != nil:
		l, err := c.compile(n.L, true)
		if err != nil {
			return nil, err
		}
		return mapFloats(c.result(inner), l, constPow(n.R)), nil
	}
	if op.IsComparison() && n.L.Type() == types.Bool {
		return c.compileBinOp(&BinOp{Op: op, L: asBigint(n.L), R: asBigint(n.R), Typ: types.Bool}, inner)
	}
	lo, ro, err := c.compileOperands(n.L, n.R)
	if err != nil {
		return nil, err
	}
	if op.IsComparison() {
		return compileCompare(c.result(inner), op, n.L.Type(), lo, ro)
	}
	return compileArith(c.result(inner), op, n.Typ, lo, ro)
}

func isNullConst(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.Val.Null
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

func (c *compiler) compileUnOp(n *UnOp, inner bool) (Evaluator, error) {
	if n.Op == OpNeg { // -x is x * -1 exactly, -0 and BIGINT's range included
		minusOne, _ := castValue(types.NewInt(-1), n.Typ)
		return c.compileBinOp(&BinOp{Op: OpMul, L: n.E, R: &Const{Val: minusOne}, Typ: n.Typ}, inner)
	}
	if n.Op != OpNot {
		return nil, fmt.Errorf("cannot compile unary operator %s", n.Op)
	}
	arg, err := c.compile(n.E, true)
	if err != nil {
		return nil, err
	}
	res := c.result(inner)
	return func(b *types.Batch) (*types.Column, error) {
		in, err := arg(b)
		if err != nil {
			return nil, err
		}
		cnt := in.Len()
		out := res.column(types.Bool, cnt)
		for i, v := range in.Bools[:cnt] {
			out.Bools[i] = !v
		}
		res.nulls(out, cnt, in, nil)
		return out, nil
	}, nil
}

// compileCase compiles CASE, whose result is always a fresh column: it is
// built a value at a time.
func (c *compiler) compileCase(n *Case) (Evaluator, error) {
	conds := make([]Evaluator, len(n.Whens))
	thens := make([]Evaluator, len(n.Whens))
	for i, w := range n.Whens {
		var err error
		if conds[i], err = c.compile(w.Cond, true); err != nil {
			return nil, err
		}
		if thens[i], err = c.compile(w.Then, true); err != nil {
			return nil, err
		}
	}
	var els Evaluator
	if n.Else != nil {
		var err error
		if els, err = c.compile(n.Else, true); err != nil {
			return nil, err
		}
	}
	t := n.Typ
	var decided []int // decided[i] = arm index + 1, 0 = undecided
	var armCols []*types.Column
	return func(b *types.Batch) (*types.Column, error) {
		cnt := b.Len()
		decided = slices.Grow(decided[:0], cnt)[:cnt]
		clear(decided)
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
		armCols = armCols[:0]
		for _, th := range thens {
			c, err := th(b)
			if err != nil {
				return nil, err
			}
			armCols = append(armCols, c)
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

// mapFloats applies f to every row of a DOUBLE argument into res; NULLs
// stay NULL.
func mapFloats(res result, arg Evaluator, f func(float64) float64) Evaluator {
	return func(b *types.Batch) (*types.Column, error) {
		in, err := arg(b)
		if err != nil {
			return nil, err
		}
		cnt := in.Len()
		out := res.column(types.Float64, cnt)
		for i, x := range in.Floats[:cnt] {
			out.Floats[i] = f(x)
		}
		res.nulls(out, cnt, in, nil)
		return out, nil
	}
}

// compileFunc compiles a scalar function call. The numeric functions write
// into res; least/greatest and the string functions build fresh columns.
func (c *compiler) compileFunc(n *FuncCall, inner bool) (Evaluator, error) {
	if AggregateFuncs[n.Name] {
		return nil, fmt.Errorf("aggregate %s evaluated outside GROUP BY context", n.Name)
	}
	switch last := len(n.Args) - 1; n.Name {
	case "pow", "power":
		return c.compileBinOp(&BinOp{Op: OpPow, L: n.Args[0], R: n.Args[1], Typ: types.Float64}, inner)
	case "coalesce": // the first argument that is not NULL
		cs := &Case{Else: castTo(n.Args[last], n.Typ), Typ: n.Typ}
		for _, a := range n.Args[:last] {
			cs.Whens = append(cs.Whens, When{Cond: &IsNull{E: a, Negate: true}, Then: castTo(a, n.Typ)})
		}
		return c.compileCase(cs)
	}
	args := make([]Evaluator, len(n.Args))
	for i, a := range n.Args {
		ev, err := c.compile(a, true)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	name, res := n.Name, c.result(inner)
	if f := scalarFloatFunc(name); f != nil && len(args) == 1 && n.Typ == types.Float64 {
		return mapFloats(res, args[0], f), nil
	}
	switch name {
	case "abs", "sign":
		// Integer-typed abs/sign.
		arg := args[0]
		return func(b *types.Batch) (*types.Column, error) {
			in, err := arg(b)
			if err != nil {
				return nil, err
			}
			cnt := in.Len()
			out := res.column(types.Int64, cnt)
			for i := 0; i < cnt; i++ {
				v := in.Ints[i]
				if name == "abs" {
					if v == math.MinInt64 && !in.IsNull(i) {
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
			res.nulls(out, cnt, in, nil)
			return out, nil
		}, nil
	case "least", "greatest":
		want := -1 // comparison direction
		if name == "greatest" {
			want = 1
		}
		t := n.Typ
		cols := make([]*types.Column, len(args))
		return func(b *types.Batch) (*types.Column, error) {
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
	cols := make([]*types.Column, len(args))
	return func(b *types.Batch) (*types.Column, error) {
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
		result{}.nulls(out, cnt, cols[0], nil)
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

func (c *compiler) compileLike(n *Like, inner bool) (Evaluator, error) {
	arg, err := c.compile(n.E, true)
	if err != nil {
		return nil, err
	}
	pattern, negate, res := n.Pattern, n.Negate, c.result(inner)
	return func(b *types.Batch) (*types.Column, error) {
		in, err := arg(b)
		if err != nil {
			return nil, err
		}
		cnt := in.Len()
		out := res.column(types.Bool, cnt)
		for i := 0; i < cnt; i++ {
			out.Bools[i] = !in.IsNull(i) && MatchLike(in.Strs[i], pattern) != negate
		}
		res.nulls(out, cnt, in, nil)
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
