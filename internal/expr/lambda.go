package expr

import (
	"fmt"
	"math"

	"lambdadb/internal/types"
)

// FloatFn is a compiled scalar lambda over up to two numeric tuples, the
// form analytical operators use in their hot loops (e.g. a distance metric
// in k-Means). Parameters beyond those a lambda declares are ignored.
type FloatFn func(a, b []float64) float64

// boolFn is the boolean counterpart used for comparisons inside lambdas.
type boolFn func(a, b []float64) bool

// BindLambda resolves a lambda's parameter fields against the tuple schemas
// its parameters are bound to (one schema per parameter, positional). All
// referenced fields must be numeric. It returns a resolved copy.
func BindLambda(l *Lambda, schemas []types.Schema) (*Lambda, error) {
	if len(schemas) < len(l.Params) {
		return nil, fmt.Errorf("lambda %s: bound to %d inputs, declares %d parameters",
			l, len(schemas), len(l.Params))
	}
	paramIdx := make(map[string]int, len(l.Params))
	for i, p := range l.Params {
		paramIdx[p] = i
	}
	var bindErr error
	body := Rewrite(l.Body, func(e Expr) Expr {
		pf, ok := e.(*ParamField)
		if !ok || bindErr != nil {
			return e
		}
		pi, ok := paramIdx[pf.Param]
		if !ok {
			bindErr = fmt.Errorf("lambda %s: unknown parameter %q", l, pf.Param)
			return e
		}
		fi := schemas[pi].IndexOf(pf.Field)
		if fi < 0 {
			bindErr = fmt.Errorf("lambda %s: parameter %q has no field %q", l, pf.Param, pf.Field)
			return e
		}
		ft := schemas[pi][fi].Type
		if !ft.IsNumeric() {
			bindErr = fmt.Errorf("lambda %s: field %s.%s is %s, need a numeric type",
				l, pf.Param, pf.Field, ft)
			return e
		}
		return &ParamField{Param: pf.Param, Field: pf.Field,
			ParamIdx: pi, FieldIdx: fi, Typ: types.Float64}
	})
	if bindErr != nil {
		return nil, bindErr
	}
	return &Lambda{Params: l.Params, Body: body}, nil
}

// CompileFloatLambda compiles a bound lambda into a scalar float closure.
// The lambda body may use arithmetic, comparisons, numeric casts, CASE with
// ELSE, and the scalar math functions; all values are treated as float64.
func CompileFloatLambda(l *Lambda) (FloatFn, error) {
	fn, err := compileFloatScalar(l.Body)
	if err != nil {
		return nil, fmt.Errorf("lambda %s: %w", l, err)
	}
	return fn, nil
}

func compileFloatScalar(e Expr) (FloatFn, error) {
	switch n := e.(type) {
	case *Const:
		if !n.Val.T.IsNumeric() {
			return nil, fmt.Errorf("non-numeric constant %s", n)
		}
		v := n.Val.AsFloat()
		return func(_, _ []float64) float64 { return v }, nil

	case *ParamField:
		if n.ParamIdx < 0 || n.FieldIdx < 0 {
			return nil, fmt.Errorf("unbound parameter field %s", n)
		}
		fi := n.FieldIdx
		if n.ParamIdx == 0 {
			return func(a, _ []float64) float64 { return a[fi] }, nil
		}
		if n.ParamIdx == 1 {
			return func(_, b []float64) float64 { return b[fi] }, nil
		}
		return nil, fmt.Errorf("more than two parameters are not supported in scalar compilation")

	case *Cast:
		inner, err := compileFloatScalar(n.E)
		switch {
		case err != nil || n.To == types.Float64:
			return inner, err
		case n.To == types.Int64: // truncates toward zero, as SQL's CAST does
			return func(a, b []float64) float64 { return float64(int64(inner(a, b))) }, nil
		}
		return nil, fmt.Errorf("cast to %s does not produce a number", n.To)

	case *UnOp:
		inner, err := compileFloatScalar(n.E)
		if err != nil {
			return nil, err
		}
		if n.Op != OpNeg {
			return nil, fmt.Errorf("unary %s not supported in float context", n.Op)
		}
		return func(a, b []float64) float64 { return -inner(a, b) }, nil

	case *BinOp:
		if !n.Op.IsArith() {
			return nil, fmt.Errorf("operator %s does not produce a number", n.Op)
		}
		l, err := compileFloatScalar(n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileFloatScalar(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpAdd:
			return func(a, b []float64) float64 { return l(a, b) + r(a, b) }, nil
		case OpSub:
			return func(a, b []float64) float64 { return l(a, b) - r(a, b) }, nil
		case OpMul:
			return func(a, b []float64) float64 { return l(a, b) * r(a, b) }, nil
		case OpDiv:
			return func(a, b []float64) float64 { return l(a, b) / r(a, b) }, nil
		case OpMod:
			return func(a, b []float64) float64 { return math.Mod(l(a, b), r(a, b)) }, nil
		case OpPow:
			if pow := constPow(n.R); pow != nil {
				return func(a, b []float64) float64 { return pow(l(a, b)) }, nil
			}
			return func(a, b []float64) float64 { return math.Pow(l(a, b), r(a, b)) }, nil
		}

	case *FuncCall:
		if f := scalarFloatFunc(n.Name); f != nil && len(n.Args) == 1 {
			inner, err := compileFloatScalar(n.Args[0])
			if err != nil {
				return nil, err
			}
			return func(a, b []float64) float64 { return f(inner(a, b)) }, nil
		}
		switch n.Name {
		case "pow", "power":
			l, err := compileFloatScalar(n.Args[0])
			if err != nil {
				return nil, err
			}
			r, err := compileFloatScalar(n.Args[1])
			if err != nil {
				return nil, err
			}
			return func(a, b []float64) float64 { return math.Pow(l(a, b), r(a, b)) }, nil
		case "least", "greatest":
			fns := make([]FloatFn, len(n.Args))
			for i, arg := range n.Args {
				fn, err := compileFloatScalar(arg)
				if err != nil {
					return nil, err
				}
				fns[i] = fn
			}
			if n.Name == "least" {
				return func(a, b []float64) float64 {
					best := fns[0](a, b)
					for _, fn := range fns[1:] {
						if v := fn(a, b); v < best {
							best = v
						}
					}
					return best
				}, nil
			}
			return func(a, b []float64) float64 {
				best := fns[0](a, b)
				for _, fn := range fns[1:] {
					if v := fn(a, b); v > best {
						best = v
					}
				}
				return best
			}, nil
		}
		return nil, fmt.Errorf("function %q not supported in scalar compilation", n.Name)

	case *Case:
		conds := make([]boolFn, len(n.Whens))
		thens := make([]FloatFn, len(n.Whens))
		for i, w := range n.Whens {
			c, err := compileBoolScalar(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := compileFloatScalar(w.Then)
			if err != nil {
				return nil, err
			}
			conds[i], thens[i] = c, t
		}
		if n.Else == nil {
			return nil, fmt.Errorf("CASE without ELSE is NULL where no branch matches, not a number")
		}
		els, err := compileFloatScalar(n.Else)
		if err != nil {
			return nil, err
		}
		return func(a, b []float64) float64 {
			for i, c := range conds {
				if c(a, b) {
					return thens[i](a, b)
				}
			}
			return els(a, b)
		}, nil
	}
	return nil, fmt.Errorf("cannot compile %T in scalar context", e)
}

func compileBoolScalar(e Expr) (boolFn, error) {
	switch n := e.(type) {
	case *Const:
		if n.Val.T != types.Bool {
			return nil, fmt.Errorf("expected boolean constant, got %s", n)
		}
		v := n.Val.B
		return func(_, _ []float64) bool { return v }, nil

	case *UnOp:
		if n.Op != OpNot {
			return nil, fmt.Errorf("unary %s not boolean", n.Op)
		}
		inner, err := compileBoolScalar(n.E)
		if err != nil {
			return nil, err
		}
		return func(a, b []float64) bool { return !inner(a, b) }, nil

	case *BinOp:
		switch {
		case n.Op == OpAnd || n.Op == OpOr:
			l, err := compileBoolScalar(n.L)
			if err != nil {
				return nil, err
			}
			r, err := compileBoolScalar(n.R)
			if err != nil {
				return nil, err
			}
			if n.Op == OpAnd {
				return func(a, b []float64) bool { return l(a, b) && r(a, b) }, nil
			}
			return func(a, b []float64) bool { return l(a, b) || r(a, b) }, nil

		case n.Op.IsComparison():
			l, err := compileFloatScalar(n.L)
			if err != nil {
				return nil, err
			}
			r, err := compileFloatScalar(n.R)
			if err != nil {
				return nil, err
			}
			switch n.Op {
			case OpEq:
				return func(a, b []float64) bool { return l(a, b) == r(a, b) }, nil
			case OpNe:
				return func(a, b []float64) bool { return l(a, b) != r(a, b) }, nil
			case OpLt:
				return func(a, b []float64) bool { return l(a, b) < r(a, b) }, nil
			case OpLe:
				return func(a, b []float64) bool { return l(a, b) <= r(a, b) }, nil
			case OpGt:
				return func(a, b []float64) bool { return l(a, b) > r(a, b) }, nil
			case OpGe:
				return func(a, b []float64) bool { return l(a, b) >= r(a, b) }, nil
			}
		}
	}
	return nil, fmt.Errorf("cannot compile %T in boolean context", e)
}
