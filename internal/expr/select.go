package expr

import (
	"fmt"

	"lambdadb/internal/types"
)

// Selector narrows sel — ascending row positions of b, nil meaning every
// row — to the rows where a predicate is true, not false or NULL, and
// returns them in out's storage, which may be sel's own. b carries no
// selection of its own. Like an Evaluator, a Selector owns buffers and is
// not safe for concurrent use.
type Selector func(b *types.Batch, sel, out []int) ([]int, error)

// CompileSelect compiles a filter predicate into a Selector, one step per
// conjunct, each narrowing the previous step's survivors. A conjunct that
// compares a BIGINT or DOUBLE column with a constant or a $N is a typed
// select kernel: it writes positions directly and reads only the rows still
// selected. Every other conjunct is evaluated as the whole predicate would
// evaluate it — over every row of the batch, so it fails where it would —
// and its true rows are intersected with the selection. s is as for
// Compile.
func CompileSelect(e Expr, args []types.Value, s *types.Scratch) (Selector, error) {
	e, err := bind(e, args)
	if err != nil {
		return nil, err
	}
	c := &compiler{scratch: s}
	var steps []Selector
	for _, conj := range conjuncts(e, nil) {
		if step := selectKernel(conj); step != nil {
			steps = append(steps, step)
			continue
		}
		ev, err := c.root(conj)
		if err != nil {
			return nil, err
		}
		steps = append(steps, func(b *types.Batch, sel, out []int) ([]int, error) {
			col, err := ev(b)
			if err != nil {
				return nil, err
			}
			return selectTrue(col, b.Len(), sel, out), nil
		})
	}
	return func(b *types.Batch, sel, out []int) ([]int, error) {
		n := b.Len()
		if sel != nil {
			n = len(sel)
		}
		if cap(out) < n {
			out = make([]int, n)
		}
		for _, step := range steps {
			var err error
			if sel, err = step(b, sel, out[:n]); err != nil {
				return nil, err
			}
		}
		return sel, nil
	}, nil
}

// conjuncts appends the conjuncts of e in the order compileLogic evaluates
// them, settling a constant operand of AND as it does: TRUE drops out, and
// FALSE stands for the whole AND, whose other side is never evaluated.
func conjuncts(e Expr, out []Expr) []Expr {
	n, ok := e.(*BinOp)
	if !ok || n.Op != OpAnd {
		return append(out, e)
	}
	l, r := n.L, n.R
	if _, ok := l.(*Const); ok {
		l, r = r, l
	}
	if k, ok := r.(*Const); ok && !k.Val.Null {
		if k.Val.B {
			return conjuncts(l, out)
		}
		return append(out, r)
	}
	return conjuncts(r, conjuncts(l, out))
}

// selectKernel returns the typed select step of a comparison between a
// BIGINT or DOUBLE column — a BIGINT one widened to DOUBLE included — and a
// constant, or nil for any other conjunct.
func selectKernel(e Expr) Selector {
	n, ok := e.(*BinOp)
	if !ok || !n.Op.IsComparison() {
		return nil
	}
	t := n.L.Type()
	if t != types.Int64 && t != types.Float64 {
		return nil
	}
	op, col, k := n.Op, n.L, n.R
	if _, ok := col.(*ColRef); !ok && !isWidened(col) {
		op, col, k = op.Flip(), n.R, n.L
	}
	ref, _ := col.(*ColRef)
	widened := isWidened(col)
	if widened {
		ref = col.(*Cast).E.(*ColRef)
	}
	v, ok := constOperand(k, t)
	if ref == nil || !ok || !widened && ref.Typ != t {
		return nil
	}
	idx := ref.Index
	return func(b *types.Batch, sel, out []int) ([]int, error) {
		if idx < 0 || idx >= len(b.Cols) {
			return nil, fmt.Errorf("column index %d out of range (batch has %d)", idx, len(b.Cols))
		}
		return SelectCompare(op, b.Cols[idx], b.Len(), v, sel, out), nil
	}
}

// SelectCompare narrows sel (nil: the first n rows) to the rows of c, a
// BIGINT or DOUBLE column, that are not NULL and whose value x satisfies
// x op k, writing them to out, which has room for them all. It compares as
// a filter does: a BIGINT column with a DOUBLE k widened, and by IEEE 754,
// so a NaN satisfies only <>. A NULL k selects nothing, as the comparison
// it stands for is NULL on every row.
func SelectCompare(op Op, c *types.Column, n int, k types.Value, sel, out []int) []int {
	switch {
	case k.Null:
		return out[:0]
	case c.T == types.Float64:
		out = selectCompare(op, c.Floats[:n], k.AsFloat(), sel, out)
	case k.T == types.Float64:
		out = selectCompare(op, c.Ints[:n], k.F, sel, out)
	default:
		out = selectCompare(op, c.Ints[:n], k.I, sel, out)
	}
	if c.Nulls != nil {
		out = dropNulls(out, c.Nulls)
	}
	return out
}

// isWidened reports whether e is a BIGINT column cast to DOUBLE, as the
// resolver widens one compared with a DOUBLE.
func isWidened(e Expr) bool {
	c, ok := e.(*Cast)
	if !ok || c.To != types.Float64 {
		return false
	}
	ref, ok := c.E.(*ColRef)
	return ok && ref.Typ == types.Int64
}

// constOperand returns the value a comparison of type t compares with when
// e is a constant, or a constant cast to DOUBLE (a bound $N of BIGINT
// compared with a DOUBLE column), as compileCompare reads it: k.I for
// BIGINT, k.AsFloat() for DOUBLE.
func constOperand(e Expr, t types.Type) (types.Value, bool) {
	if c, ok := e.(*Cast); ok && c.To == types.Float64 {
		e = c.E
	}
	k, ok := e.(*Const)
	if !ok || !k.Val.Null && !k.Val.T.IsNumeric() {
		return types.Value{}, false
	}
	if k.Val.Null {
		return k.Val, true
	}
	if t == types.Float64 {
		return types.NewFloat(k.Val.AsFloat()), true
	}
	return types.NewInt(k.Val.I), true
}

// selectCompare narrows sel (nil: every row of vals) to the rows whose
// value x, converted to T, satisfies x op k, writing them to out. The
// comparisons are compare's, Go's IEEE 754 operators, so a NaN satisfies
// only <>. A row's position is written before its test, which then only
// decides whether the next position overwrites it.
func selectCompare[E, T int64 | float64](op Op, vals []E, k T, sel, out []int) []int {
	m := 0
	if sel == nil {
		out = out[:len(vals)]
		switch op {
		case OpEq:
			for i, x := range vals {
				out[m] = i
				m += b2i(T(x) == k)
			}
		case OpNe:
			for i, x := range vals {
				out[m] = i
				m += b2i(T(x) != k)
			}
		case OpLt:
			for i, x := range vals {
				out[m] = i
				m += b2i(T(x) < k)
			}
		case OpLe:
			for i, x := range vals {
				out[m] = i
				m += b2i(T(x) <= k)
			}
		case OpGt:
			for i, x := range vals {
				out[m] = i
				m += b2i(k < T(x))
			}
		case OpGe:
			for i, x := range vals {
				out[m] = i
				m += b2i(k <= T(x))
			}
		}
		return out[:m]
	}
	out = out[:len(sel)]
	switch op {
	case OpEq:
		for _, i := range sel {
			out[m] = i
			m += b2i(T(vals[i]) == k)
		}
	case OpNe:
		for _, i := range sel {
			out[m] = i
			m += b2i(T(vals[i]) != k)
		}
	case OpLt:
		for _, i := range sel {
			out[m] = i
			m += b2i(T(vals[i]) < k)
		}
	case OpLe:
		for _, i := range sel {
			out[m] = i
			m += b2i(T(vals[i]) <= k)
		}
	case OpGt:
		for _, i := range sel {
			out[m] = i
			m += b2i(k < T(vals[i]))
		}
	case OpGe:
		for _, i := range sel {
			out[m] = i
			m += b2i(k <= T(vals[i]))
		}
	}
	return out[:m]
}

// selectTrue narrows sel (nil: the first n rows) to the rows where the
// BOOLEAN column c is true and not NULL, writing them to out.
func selectTrue(c *types.Column, n int, sel, out []int) []int {
	m := 0
	if sel == nil {
		out = out[:n]
		for i, t := range c.Bools[:n] {
			out[m] = i
			m += b2i(t)
		}
	} else {
		out = out[:len(sel)]
		for _, i := range sel {
			out[m] = i
			m += b2i(c.Bools[i])
		}
	}
	if c.Nulls != nil {
		return dropNulls(out[:m], c.Nulls)
	}
	return out[:m]
}

// dropNulls removes the positions whose row is NULL from sel, in place.
func dropNulls(sel []int, nulls []bool) []int {
	m := 0
	for _, i := range sel {
		sel[m] = i
		m += b2i(!nulls[i])
	}
	return sel[:m]
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag move, so
// a select loop has no branch to mispredict.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
