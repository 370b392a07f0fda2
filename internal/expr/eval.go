package expr

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lambdadb/internal/types"
)

// Evaluator computes one column from an input batch, one row per row the
// batch selects (Batch.Sel), and computes the selected rows alone. The column
// is borrowed like a batch from an operator's Next: it is valid until the
// evaluator's next call, and a caller that keeps it keeps types.Retain of it.
// It may be an input column or a Reused buffer; callers never mutate it. An
// Evaluator owns the buffers of its nodes, so it is not safe for concurrent
// use: every goroutine compiles its own.
type Evaluator func(*types.Batch) (*types.Column, error)

// Compile translates a resolved expression tree into a tree of closures.
// Each closure is specialized to its operand types, so batch evaluation
// performs no per-row type dispatch — the reproduction's analog of HyPer's
// compiled query pipelines. A node's only reader is its parent kernel, or
// the caller at the root, and it reads each result before the next call, so
// every node writes into a Buffer of its own drawn from s and reused from
// call to call; the owner of s books the buffers and, after s.Rewind, hands
// them to the evaluator it compiles next. A nil s gives buffers that nothing
// counts.
//
// args binds the $N placeholders of e: each becomes the constant Arg
// returns for it before anything is compiled, so a bound $N compiles
// exactly like the literal it stands for. An unbound one fails.
func Compile(e Expr, args []types.Value, s *types.Scratch) (Evaluator, error) {
	e, err := bind(e, args)
	if err != nil {
		return nil, err
	}
	return (&compiler{scratch: s}).root(e)
}

// Arg returns the value bound to parameter $idx — args[i] binds $i+1 —
// coerced to to, the type the placeholder was declared or inferred with. It
// is the one place a $N meets its value.
func Arg(args []types.Value, idx int, to types.Type) (types.Value, error) {
	if idx < 1 || idx > len(args) {
		return types.Value{}, fmt.Errorf("no argument bound for parameter $%d", idx)
	}
	v := args[idx-1]
	cv, ok, err := types.Coerce(v, to)
	if err != nil {
		return types.Value{}, fmt.Errorf("parameter $%d: %w", idx, err)
	}
	if !ok {
		return types.Value{}, fmt.Errorf("parameter $%d: cannot bind %s value where %s is expected", idx, v.T, to)
	}
	return cv, nil
}

// bind returns e with each $N replaced by its Arg, as a Const. A tree
// without placeholders comes back as it is; one with placeholders is copied,
// never written, so a plan shared between executions stays as it was built.
func bind(e Expr, args []types.Value) (Expr, error) {
	if !hasParam(e) {
		return e, nil
	}
	var err error
	out := Rewrite(e, func(x Expr) Expr {
		p, ok := x.(*Param)
		if !ok || err != nil {
			return x
		}
		v, perr := Arg(args, p.Idx, p.Typ)
		if perr != nil {
			err = perr
			return x
		}
		return &Const{Val: v}
	})
	return out, err
}

func hasParam(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*Param); ok {
			found = true
		}
		return !found
	})
	return found
}

// compiler compiles one tree, drawing its nodes' buffers from scratch.
type compiler struct{ scratch *types.Scratch }

// root compiles e as a tree of its own, behind the one place where an
// Evaluator meets a selection, so that no node below it does.
func (c *compiler) root(e Expr) (Evaluator, error) {
	ev, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return (&rootEval{tree: ev, e: e, scratch: c.scratch}).eval, nil
}

// rootEval hands tree a batch without a selection as it is, and of one with
// a selection the selected rows of the columns e reads, at their positions
// (so a CASE arm reads the enclosing tree's), gathered into buffers drawn
// from scratch at the first such batch; column 0, the batch's length, is the
// first of them when e does not read it, or the batch itself if e reads none.
type rootEval struct {
	tree    Evaluator
	e       Expr
	scratch *types.Scratch
	reads   []int // ascending; nil until the first selected batch
	bufs    []*types.Buffer
	in      types.Batch
}

func (r *rootEval) eval(b *types.Batch) (*types.Column, error) {
	if r.reads == nil && b.Sel != nil {
		refs := map[int]bool{}
		ReferencedColumns(r.e, refs)
		r.reads = make([]int, 0, len(refs))
		for c := range refs {
			r.reads, r.bufs = append(r.reads, c), append(r.bufs, r.scratch.Buffer())
		}
		slices.Sort(r.reads)
		r.in.Cols = make([]*types.Column, len(b.Cols))
	}
	if b.Sel == nil || len(r.reads) == 0 {
		return r.tree(b)
	}
	for j, c := range r.reads {
		if c >= len(b.Cols) {
			return nil, fmt.Errorf("column index %d out of range (batch has %d)", c, len(b.Cols))
		}
		r.in.Cols[c] = r.bufs[j].Gather(b.Cols[c], b.Sel)
	}
	r.in.Cols[0] = r.in.Cols[r.reads[0]]
	return r.tree(&r.in)
}

// compile compiles e. A node that passes a child's output through
// compiles the child in its place.
func (c *compiler) compile(e Expr) (Evaluator, error) {
	switch n := e.(type) {
	case *Const:
		v, buf := n.Val, c.scratch.Buffer()
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

	case *Cast:
		return c.compileCast(n)

	case *BinOp:
		return c.compileBinOp(n)

	case *UnOp:
		return c.compileUnOp(n)

	case *FuncCall:
		return c.compileFunc(n)

	case *Case:
		return c.compileCase(n)

	case *Like:
		return c.compileLike(n)

	case *IsNull:
		arg, err := c.compile(n.E)
		if err != nil {
			return nil, err
		}
		negate, res := n.Negate, c.scratch.Buffer()
		return func(b *types.Batch) (*types.Column, error) {
			in, err := arg(b)
			if err != nil {
				return nil, err
			}
			cnt := in.Len()
			out := res.Reset(types.Bool, cnt)
			for i := range out.Bools {
				out.Bools[i] = in.IsNull(i) != negate
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("cannot compile expression %T", e)
}

func (c *compiler) compileCast(n *Cast) (Evaluator, error) {
	from, to := n.E.Type(), n.To
	if from == to {
		return c.compile(n.E)
	}
	if from == types.Float64 && to == types.Int64 {
		return c.compileCastBigint(n.E)
	}
	arg, err := c.compile(n.E)
	if err != nil {
		return nil, err
	}
	return strict(c.scratch.Buffer(), to, castRows(from, to), arg), nil
}

// strict is a node whose result, of type t, is NULL exactly where one of its
// arguments is: fill writes the result's rows from the arguments', and what
// a NULL row's slot holds is never read.
func strict(res *types.Buffer, t types.Type, fill func(out *types.Column, in []*types.Column) error, args ...Evaluator) Evaluator {
	in := make([]*types.Column, len(args))
	return func(b *types.Batch) (*types.Column, error) {
		for i, a := range args {
			c, err := a(b)
			if err != nil {
				return nil, err
			}
			in[i] = c
		}
		out := res.Reset(t, in[0].Len())
		for _, c := range in {
			unionNulls(res, out, c.Nulls)
		}
		if err := fill(out, in); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// compileCastBigint compiles CAST(e AS BIGINT) of a DOUBLE e: one typed
// loop into res that truncates toward zero and keeps e's NULLs. CAST(floor(x)
// AS BIGINT), the bucketing idiom, floors in the same loop. A row that is
// not NULL and is NaN, infinite or outside [-2^63, 2^63) fails the cast with
// types.ErrBigintRange, as BIGINT arithmetic fails, instead of wrapping.
func (c *compiler) compileCastBigint(e Expr) (Evaluator, error) {
	loop := truncate
	if f, ok := e.(*FuncCall); ok && f.Name == "floor" {
		e, loop = f.Args[0], floorTruncate // floor keeps x's NULLs and range
	}
	arg, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return strict(c.scratch.Buffer(), types.Int64, func(out *types.Column, in []*types.Column) error {
		if x := in[0]; !loop(out.Ints, x.Floats) && !inBigintRange(x.Floats, x.Nulls) {
			return types.ErrBigintRange
		}
		return nil
	}, arg), nil
}

// castColumn converts column c into res as a compiled CAST converts it.
func castColumn(res *types.Buffer, c *types.Column, to types.Type) (*types.Column, error) {
	return strict(res, to, castRows(c.T, to), func(*types.Batch) (*types.Column, error) { return c, nil })(nil)
}

// castRows is the fill of a cast: BIGINT to DOUBLE and BOOLEAN to BIGINT are
// typed loops, the rest goes row by row through castValue, which defines
// both. A compiled DOUBLE-to-BIGINT cast is compileCastBigint's own loop,
// which adds BIGINT's range to castValue's truncation.
func castRows(from, to types.Type) func(out *types.Column, in []*types.Column) error {
	switch {
	case from == types.Int64 && to == types.Float64:
		return func(out *types.Column, in []*types.Column) error {
			for i, v := range in[0].Ints {
				out.Floats[i] = float64(v)
			}
			return nil
		}
	case from == types.Bool && to == types.Int64:
		return func(out *types.Column, in []*types.Column) error {
			for i, v := range in[0].Bools {
				out.Ints[i] = int64(b2i(v))
			}
			return nil
		}
	}
	return func(out *types.Column, in []*types.Column) error {
		for i := range out.Len() {
			if out.IsNull(i) {
				continue
			}
			v, err := castValue(in[0].Value(i), to)
			if err != nil {
				return err
			}
			if to == types.String {
				out.Strs[i] = v.S
			} else { // a DOUBLE to BIGINT: castValue's other conversions have typed loops
				out.Ints[i] = v.I
			}
		}
		return nil
	}
}

// truncate sets dst[i] to src[i] truncated toward zero and reports whether
// every src[i] lies strictly inside (-2^63, 2^63), so that the truncation is
// a BIGINT. The batch has one flag, set without a branch: a biased exponent
// past 0x43d (|x| >= 2^63, ±Inf and NaN) turns its sign bit on.
func truncate(dst []int64, src []float64) bool {
	dst = dst[:len(src)]
	var over int64
	for i, x := range src {
		dst[i] = int64(x)
		over |= 0x43d - int64(math.Float64bits(x)>>52&0x7ff)
	}
	return over >= 0
}

// floorTruncate is truncate of floor(src[i]).
func floorTruncate(dst []int64, src []float64) bool {
	dst = dst[:len(src)]
	var over int64
	for i, x := range src {
		x = math.Floor(x)
		dst[i] = int64(x)
		over |= 0x43d - int64(math.Float64bits(x)>>52&0x7ff)
	}
	return over >= 0
}

// inBigintRange is truncate's check row by row, for a batch whose flag is
// set: every row that is not NULL converts by types.FloatToInt (-2^63
// itself sets the flag and passes here).
func inBigintRange(src []float64, nulls []bool) bool {
	for i, x := range src {
		if _, ok := types.FloatToInt(x); !ok && !isNull(nulls, i) {
			return false
		}
	}
	return true
}

// castValue converts one value. Its DOUBLE to BIGINT is Go's conversion,
// which wraps outside BIGINT's range; the compiled cast checks the range
// (compileCastBigint), as types.Coerce does.
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

func (c *compiler) compileBinOp(n *BinOp) (Evaluator, error) {
	op := n.Op
	switch {
	case op == OpAnd || op == OpOr:
		return c.compileLogic(op, n.L, n.R)
	case !op.IsComparison() && !op.IsArith() && op != OpConcat:
		return nil, fmt.Errorf("cannot compile operator %s", op)
	case isNullConst(n.L) || isNullConst(n.R):
		// A NULL operand makes every row NULL; it has the other side's type.
		return c.compile(&Const{Val: types.NewNull(n.Typ)})
	case op == OpPow && constPow(n.R) != nil:
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		return mapFloats(c.scratch.Buffer(), l, constPow(n.R)), nil
	}
	if op.IsComparison() && n.L.Type() == types.Bool {
		return c.compileBinOp(&BinOp{Op: op, L: asBigint(n.L), R: asBigint(n.R), Typ: types.Bool})
	}
	lo, ro, err := c.compileOperands(n.L, n.R)
	if err != nil {
		return nil, err
	}
	if op.IsComparison() {
		return compileCompare(c.scratch.Buffer(), op, n.L.Type(), lo, ro)
	}
	return compileArith(c.scratch.Buffer(), op, n.Typ, lo, ro)
}

func isNullConst(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.Val.Null
}

// constPow returns the loop of x ^ k when the exponent k is a constant
// that needs no math.Pow, and nil otherwise. x ^ 2 is a multiply — except
// where the square is subnormal: Pow computes it on the mantissa and scales
// afterwards, rounding once where x*x rounds twice — x ^ 1 is x, and x ^ 0
// is 1 (for NaN too).
func constPow(k Expr) func(dst, src []float64) {
	if !IsConst(k) {
		return nil
	}
	v, err := EvalConst(k, nil)
	if err != nil || v.Null {
		return nil
	}
	switch v.AsFloat() {
	case 2:
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				sq := x * x
				if sq < 0x1p-1022 {
					sq = math.Pow(x, 2)
				}
				dst[i] = sq
			}
		}
	case 1:
		return func(dst, src []float64) { copy(dst, src) }
	case 0:
		return func(dst, src []float64) {
			for i := range src {
				dst[i] = 1
			}
		}
	}
	return nil
}

func (c *compiler) compileUnOp(n *UnOp) (Evaluator, error) {
	if n.Op == OpNeg { // -x is x * -1 exactly, -0 and BIGINT's range included
		minusOne, _ := castValue(types.NewInt(-1), n.Typ)
		return c.compileBinOp(&BinOp{Op: OpMul, L: n.E, R: &Const{Val: minusOne}, Typ: n.Typ})
	}
	if n.Op != OpNot {
		return nil, fmt.Errorf("cannot compile unary operator %s", n.Op)
	}
	arg, err := c.compile(n.E)
	if err != nil {
		return nil, err
	}
	return strict(c.scratch.Buffer(), types.Bool, func(out *types.Column, in []*types.Column) error {
		for i, v := range in[0].Bools {
			out.Bools[i] = !v
		}
		return nil
	}, arg), nil
}

// compileCase compiles CASE. Each WHEN is evaluated over the rows no
// earlier WHEN took, and each arm over the rows it takes, so an arm fails
// only on a row it decides; the ELSE, NULL when there is none, is a last
// WHEN TRUE. A typed scatter writes each arm's rows into res; an arm that
// takes every row is the result as it is.
func (c *compiler) compileCase(n *Case) (Evaluator, error) {
	els := cmp.Or[Expr](n.Else, &Const{Val: types.NewNull(n.Typ)})
	whens := append(slices.Clip(n.Whens), When{Cond: &Const{Val: types.NewBool(true)}, Then: els})
	arms := make([]struct{ cond, then Evaluator }, len(whens))
	for i, w := range whens {
		var err error
		if arms[i].cond, err = c.root(w.Cond); err == nil {
			arms[i].then, err = c.root(w.Then)
		}
		if err != nil {
			return nil, err
		}
	}
	t, res := n.Typ, c.scratch.Buffer()
	var took, rest []int
	var views [2]types.Batch // the rows an arm takes, and the rows no WHEN took yet
	return func(b *types.Batch) (*types.Column, error) {
		rows := b.Len()
		took, rest = slices.Grow(took[:0], rows), slices.Grow(rest[:0], rows)
		var out *types.Column
		var sel, pending []int // nil: every row
		in := b
		for _, arm := range arms {
			cond, err := arm.cond(in)
			if err != nil {
				return nil, err
			}
			sel, pending = split(cond, pending, took, rest)
			views[0], views[1] = types.Batch{Cols: b.Cols, Sel: sel}, types.Batch{Cols: b.Cols, Sel: pending}
			in = &views[1]
			switch {
			case len(sel) == rows:
				return arm.then(b)
			case len(sel) > 0:
				col, err := arm.then(&views[0])
				if err != nil {
					return nil, err
				}
				if out == nil {
					out = res.Reset(t, rows)
				}
				scatter(res, out, col, sel)
			}
		}
		return out, nil // every row is decided, and no arm took them all
	}, nil
}

// split divides the rows sel selects — nil: every row of cond — by cond,
// which has one row per selected row: those where it is true and not NULL
// go to took, the others to rest, whose storage sel may share.
func split(cond *types.Column, sel, took, rest []int) ([]int, []int) {
	n := cond.Len()
	took, rest = took[:n], rest[:n]
	k, m := 0, 0
	for j, v := range cond.Bools {
		i := j
		if sel != nil {
			i = sel[j]
		}
		v = v && !isNull(cond.Nulls, j)
		took[k], rest[m] = i, i
		k += b2i(v)
		m += b2i(!v)
	}
	return took[:k], rest[:m]
}

// scatter writes col's rows to the rows idx of out, res's column.
func scatter(res *types.Buffer, out, col *types.Column, idx []int) {
	switch out.T {
	case types.Int64:
		scatterInto(out.Ints, col.Ints, idx)
	case types.Float64:
		scatterInto(out.Floats, col.Floats, idx)
	case types.String:
		scatterInto(out.Strs, col.Strs, idx)
	case types.Bool:
		scatterInto(out.Bools, col.Bools, idx)
	}
	if col.Nulls != nil {
		if out.Nulls == nil {
			clear(res.Nulls(out.Len()))
		}
		scatterInto(out.Nulls, col.Nulls, idx)
	}
}

func scatterInto[T any](dst, src []T, idx []int) {
	for j, i := range idx {
		dst[i] = src[j]
	}
}

// mapFloats runs loop, one typed pass of a DOUBLE function (a builtin's
// floats, constPow), over a DOUBLE argument into res; NULLs stay NULL.
func mapFloats(res *types.Buffer, arg Evaluator, loop func(dst, src []float64)) Evaluator {
	return strict(res, types.Float64, func(out *types.Column, in []*types.Column) error {
		loop(out.Floats, in[0].Floats)
		return nil
	}, arg)
}

func (c *compiler) compileLike(n *Like) (Evaluator, error) {
	arg, err := c.compile(n.E)
	if err != nil {
		return nil, err
	}
	pattern, negate := n.Pattern, n.Negate
	return strict(c.scratch.Buffer(), types.Bool, func(out *types.Column, in []*types.Column) error {
		for i, s := range in[0].Strs {
			out.Bools[i] = !out.IsNull(i) && MatchLike(s, pattern) != negate
		}
		return nil
	}, arg), nil
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

// EvalConst evaluates a constant-foldable expression to a scalar value,
// its $N bound from args as Compile binds them.
func EvalConst(e Expr, args []types.Value) (types.Value, error) {
	// Bare literals (including untyped NULL) need no compilation.
	if c, ok := e.(*Const); ok {
		return c.Val, nil
	}
	ev, err := Compile(e, args, nil)
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
