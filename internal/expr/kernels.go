package expr

import (
	"errors"
	"fmt"
	"math"

	"lambdadb/internal/types"
)

// Binary kernels: comparisons, arithmetic, || and AND/OR evaluate a batch
// with one typed loop per (operator, operand shape). The operator is chosen
// once per batch, and a constant operand is a scalar in the loop, never a
// column. The operators that call a function per row anyway — DOUBLE % and
// ^, BIGINT %, || — share one set of shape loops that makes the call.

// errModZero is BIGINT % 0, worded as PostgreSQL words it; a result past
// BIGINT's range is types.ErrBigintRange.
var errModZero = errors.New("modulo by zero")

// operand is one input of a binary kernel: a column evaluated per batch,
// or, when ev is nil, the constant k.
type operand struct {
	ev Evaluator
	k  types.Value
}

// compileOperands compiles both sides of a binary kernel, a *Const as a
// scalar. Of two constants (EvalConst's one-row batch) the left one is a
// column, so a kernel always has a column to size its result by.
func (c *compiler) compileOperands(l, r Expr) (lo, ro operand, err error) {
	if k, ok := r.(*Const); ok {
		ro.k = k.Val
	} else if ro.ev, err = c.compile(r); err != nil {
		return lo, ro, err
	}
	if k, ok := l.(*Const); ok && ro.ev != nil {
		lo.k = k.Val
	} else {
		lo.ev, err = c.compile(l)
	}
	return lo, ro, err
}

// noColumn stands for a constant operand: all of its slices are nil.
var noColumn types.Column

// evalOperands evaluates the column operands of a kernel over b and returns
// the kernel's output column from res, NULL where either operand is. A
// constant comes back as noColumn, so a kernel tells the shape by a nil
// slice.
func evalOperands(res *types.Buffer, t types.Type, lo, ro operand, b *types.Batch) (l, r, out *types.Column, err error) {
	l, r = &noColumn, &noColumn
	n := 0
	if lo.ev != nil {
		if l, err = lo.ev(b); err != nil {
			return nil, nil, nil, err
		}
		n = l.Len()
	}
	if ro.ev != nil {
		if r, err = ro.ev(b); err != nil {
			return nil, nil, nil, err
		}
		n = r.Len()
	}
	out = res.Reset(t, n)
	unionNulls(res, out, l.Nulls)
	unionNulls(res, out, r.Nulls)
	return l, r, out, nil
}

// unionNulls makes out, res's column, NULL where nulls is too. The first
// bitmap out takes is shared, as results are read-only; a second is OR-ed
// with it into res's own.
func unionNulls(res *types.Buffer, out *types.Column, nulls []bool) {
	switch prev := out.Nulls; {
	case nulls == nil:
	case prev == nil:
		out.Nulls = nulls
	default:
		own := res.Nulls(out.Len()) // prev itself, from a second call
		for i := range own {
			own[i] = prev[i] || nulls[i]
		}
	}
}

// compileCompare compiles a comparison of two operands of type t. A
// constant on the left moves to the right with the operator flipped, so
// every type has a column∘column and a column∘constant loop per operator.
func compileCompare(res *types.Buffer, op Op, t types.Type, lo, ro operand) (Evaluator, error) {
	if t != types.Int64 && t != types.Float64 && t != types.String {
		return nil, fmt.Errorf("cannot compare values of type %s", t)
	}
	if lo.ev == nil {
		lo, ro, op = ro, lo, op.Flip()
	}
	k := ro.k
	return func(b *types.Batch) (*types.Column, error) {
		l, r, out, err := evalOperands(res, types.Bool, lo, ro, b)
		if err != nil {
			return nil, err
		}
		switch t {
		case types.Int64:
			compare(op, l.Ints, r.Ints, k.I, out.Bools)
		case types.Float64:
			compare(op, l.Floats, r.Floats, k.AsFloat(), out.Bools)
		case types.String:
			compare(op, l.Strs, r.Strs, k.S, out.Bools)
		}
		return out, nil
	}, nil
}

// compare sets out[i] to a[i] op b[i], or to a[i] op k when b is nil; <>
// is = negated and, between columns, a > b is b < a. Go's operators are
// IEEE 754's: a NaN operand makes every comparison false but <>, as a float
// index does.
func compare[T int64 | float64 | string](op Op, a, b []T, k T, out []bool) {
	ne := op == OpNe
	out = out[:len(a)]
	if b == nil {
		switch op {
		case OpEq, OpNe:
			for i, x := range a {
				out[i] = (x == k) != ne
			}
		case OpLt:
			for i, x := range a {
				out[i] = x < k
			}
		case OpLe:
			for i, x := range a {
				out[i] = x <= k
			}
		case OpGt:
			for i, x := range a {
				out[i] = k < x
			}
		case OpGe:
			for i, x := range a {
				out[i] = k <= x
			}
		}
		return
	}
	b = b[:len(a)]
	if op == OpGt || op == OpGe {
		a, b, op = b, a, op.Flip()
	}
	switch op {
	case OpEq, OpNe:
		for i, x := range a {
			out[i] = (x == b[i]) != ne
		}
	case OpLt:
		for i, x := range a {
			out[i] = x < b[i]
		}
	case OpLe:
		for i, x := range a {
			out[i] = x <= b[i]
		}
	}
}

// asBigint is a BOOLEAN comparison operand as a BIGINT: false < true is
// 0 < 1.
func asBigint(e Expr) Expr {
	if c, ok := e.(*Const); ok {
		v, _ := castValue(c.Val, types.Int64)
		return &Const{Val: v}
	}
	return &Cast{E: e, To: types.Int64}
}

// compileArith compiles an arithmetic operator, or ||, whose operands and
// result are of type t. A constant on the left of + or * moves to the right.
func compileArith(res *types.Buffer, op Op, t types.Type, lo, ro operand) (Evaluator, error) {
	if t == types.Int64 && op != OpAdd && op != OpSub && op != OpMul && op != OpMod {
		return nil, fmt.Errorf("operator %s cannot yield an integer", op)
	}
	if lo.ev == nil && (op == OpAdd || op == OpMul) {
		lo, ro = ro, lo
	}
	return func(b *types.Batch) (*types.Column, error) {
		l, r, out, err := evalOperands(res, t, lo, ro, b)
		if err != nil {
			return nil, err
		}
		n, nulls := out.Len(), out.Nulls
		if t == types.String {
			call(func(x, y string) string { return x + y }, l.Strs, r.Strs, lo.k.S, ro.k.S, out.Strs)
			return out, nil
		}
		if t == types.Float64 {
			switch op {
			case OpMod:
				call(math.Mod, l.Floats, r.Floats, lo.k.AsFloat(), ro.k.AsFloat(), out.Floats)
			case OpPow:
				call(math.Pow, l.Floats, r.Floats, lo.k.AsFloat(), ro.k.AsFloat(), out.Floats)
			default:
				arith(op, l.Floats, r.Floats, lo.k.AsFloat(), ro.k.AsFloat(), out.Floats)
			}
			return out, nil
		}
		if op == OpMod {
			if zeroDivisor(r.Ints, ro.k.I, n, nulls) {
				return nil, errModZero
			}
			call(modBigint, l.Ints, r.Ints, lo.k.I, ro.k.I, out.Ints)
			return out, nil
		}
		arith(op, l.Ints, r.Ints, lo.k.I, ro.k.I, out.Ints)
		return out, checkBigint(op, l.Ints, r.Ints, ro.k.I, out.Ints, nulls)
	}, nil
}

// arith sets out[i] to a[i] op b[i] for + - * /, where a nil a or b is the
// scalar ka or kb (a only left of - and /).
func arith[T int64 | float64](op Op, a, b []T, ka, kb T, out []T) {
	switch {
	case a != nil && b != nil:
		b, out = b[:len(a)], out[:len(a)]
		switch op {
		case OpAdd:
			for i, x := range a {
				out[i] = x + b[i]
			}
		case OpSub:
			for i, x := range a {
				out[i] = x - b[i]
			}
		case OpMul:
			for i, x := range a {
				out[i] = x * b[i]
			}
		case OpDiv:
			for i, x := range a {
				out[i] = x / b[i]
			}
		}
	case b == nil:
		out = out[:len(a)]
		switch op {
		case OpAdd:
			for i, x := range a {
				out[i] = x + kb
			}
		case OpSub:
			for i, x := range a {
				out[i] = x - kb
			}
		case OpMul:
			for i, x := range a {
				out[i] = x * kb
			}
		case OpDiv:
			for i, x := range a {
				out[i] = x / kb
			}
		}
	default:
		out = out[:len(b)]
		switch op {
		case OpSub:
			for i, y := range b {
				out[i] = ka - y
			}
		case OpDiv:
			for i, y := range b {
				out[i] = ka / y
			}
		}
	}
}

// call is arith for the operators that call a function per row: DOUBLE %
// and ^ (math.Mod, math.Pow), BIGINT % (modBigint) and ||.
func call[T int64 | float64 | string](f func(x, y T) T, a, b []T, ka, kb T, out []T) {
	switch {
	case a == nil:
		for i, y := range b {
			out[i] = f(ka, y)
		}
	case b == nil:
		for i, x := range a {
			out[i] = f(x, kb)
		}
	default:
		for i, x := range a {
			out[i] = f(x, b[i])
		}
	}
}

// modBigint is BIGINT %, 0 for a zero divisor: zeroDivisor has already
// failed one on a row that is not NULL.
func modBigint(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	return x % y
}

// zeroDivisor reports whether divisor b, or the scalar kb when b is nil,
// is 0 on one of the n rows that is not NULL.
func zeroDivisor(b []int64, kb int64, n int, nulls []bool) bool {
	for i := 0; i < n; i++ {
		if b != nil {
			kb = b[i]
		}
		if kb == 0 && !isNull(nulls, i) {
			return true
		}
	}
	return false
}

// checkBigint fails BIGINT + - * whose result wrapped around on a row that
// is not NULL. In two's complement a column operand and the wrapped result
// give back the other operand exactly, so + and - need one column.
func checkBigint(op Op, a, b []int64, kb int64, out []int64, nulls []bool) error {
	switch {
	case op == OpAdd: // x + k has its constant on the right
		for i, x := range a {
			if y := out[i] - x; (x^out[i])&(y^out[i]) < 0 && !isNull(nulls, i) {
				return types.ErrBigintRange
			}
		}
	case op == OpSub && a != nil:
		for i, x := range a {
			if y := x - out[i]; (x^y)&(x^out[i]) < 0 && !isNull(nulls, i) {
				return types.ErrBigintRange
			}
		}
	case op == OpSub:
		for i, y := range b {
			if x := out[i] + y; (x^y)&(x^out[i]) < 0 && !isNull(nulls, i) {
				return types.ErrBigintRange
			}
		}
	case op == OpMul:
		for i, x := range a {
			y := kb
			if b != nil {
				y = b[i]
			}
			if x != 0 && (out[i]/x != y || x == -1 && y == math.MinInt64) && !isNull(nulls, i) {
				return types.ErrBigintRange
			}
		}
	}
	return nil
}

func isNull(nulls []bool, i int) bool { return nulls != nil && nulls[i] }

// compileLogic compiles SQL's three-valued AND and OR. The dominant value
// d — false for AND, true for OR — decides the result when either side
// holds it; otherwise the result is !d when both sides are known, else
// NULL. Without NULLs that is one pass of && or ||. A constant operand is
// settled here, as PostgreSQL's planner settles it: !d yields the other
// operand, d yields d, and NULL is an all-NULL column.
func (c *compiler) compileLogic(op Op, le, re Expr) (Evaluator, error) {
	d := op == OpOr
	if _, ok := le.(*Const); ok {
		le, re = re, le
	}
	if k, ok := re.(*Const); ok && !k.Val.Null {
		if k.Val.B != d {
			return c.compile(le)
		}
		return c.compile(re)
	}
	l, err := c.compile(le)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(re)
	if err != nil {
		return nil, err
	}
	res := c.scratch.Buffer()
	return func(b *types.Batch) (*types.Column, error) {
		lc, err := l(b)
		if err != nil {
			return nil, err
		}
		rc, err := r(b)
		if err != nil {
			return nil, err
		}
		n := lc.Len()
		out := res.Reset(types.Bool, n)
		x, y, ln, rn := lc.Bools[:n], rc.Bools[:n], lc.Nulls, rc.Nulls
		switch {
		case ln == nil && rn == nil && d:
			for i := range out.Bools {
				out.Bools[i] = x[i] || y[i]
			}
		case ln == nil && rn == nil:
			for i := range out.Bools {
				out.Bools[i] = x[i] && y[i]
			}
		default:
			nulls := res.Nulls(n)
			for i := range out.Bools {
				lk, rk := !isNull(ln, i), !isNull(rn, i)
				switch {
				case lk && x[i] == d || rk && y[i] == d:
					out.Bools[i] = d
				case lk && rk:
					out.Bools[i] = !d
				default:
					out.Bools[i], nulls[i] = false, true
					continue
				}
				nulls[i] = false
			}
		}
		return out, nil
	}, nil
}
