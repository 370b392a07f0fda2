package expr

import (
	"fmt"
	"math"
	"strings"

	"lambdadb/internal/types"
)

// scalarSig describes a builtin scalar function: argument checking and
// result typing.
type scalarSig struct {
	minArgs, maxArgs int
	// resultType infers the output type from resolved argument types.
	resultType func(args []Expr) (types.Type, error)
}

func numericResult(args []Expr) (types.Type, error) {
	for _, a := range args {
		if !a.Type().IsNumeric() {
			return types.Unknown, fmt.Errorf("expected numeric argument, got %s", a.Type())
		}
	}
	return types.Float64, nil
}

func sameNumericResult(args []Expr) (types.Type, error) {
	out := types.Int64
	for _, a := range args {
		if !a.Type().IsNumeric() {
			return types.Unknown, fmt.Errorf("expected numeric argument, got %s", a.Type())
		}
		if a.Type() == types.Float64 {
			out = types.Float64
		}
	}
	return out, nil
}

func stringArgResult(t types.Type) func(args []Expr) (types.Type, error) {
	return func(args []Expr) (types.Type, error) {
		if args[0].Type() != types.String {
			return types.Unknown, fmt.Errorf("expected string argument, got %s", args[0].Type())
		}
		return t, nil
	}
}

var scalarFuncs = map[string]scalarSig{
	"abs":      {1, 1, sameNumericResult},
	"sign":     {1, 1, sameNumericResult},
	"sqrt":     {1, 1, numericResult},
	"exp":      {1, 1, numericResult},
	"ln":       {1, 1, numericResult},
	"log":      {1, 1, numericResult},
	"pow":      {2, 2, numericResult},
	"power":    {2, 2, numericResult},
	"floor":    {1, 1, numericResult},
	"ceil":     {1, 1, numericResult},
	"round":    {1, 1, numericResult},
	"sin":      {1, 1, numericResult},
	"cos":      {1, 1, numericResult},
	"least":    {2, 16, sameNumericResult},
	"greatest": {2, 16, sameNumericResult},
	"coalesce": {1, 16, func(args []Expr) (types.Type, error) {
		t := types.Unknown
		for _, a := range args {
			t = unifyTypes(t, a.Type())
		}
		if t == types.Unknown {
			return t, fmt.Errorf("cannot infer coalesce type")
		}
		return t, nil
	}},
	"length": {1, 1, stringArgResult(types.Int64)},
	"lower":  {1, 1, stringArgResult(types.String)},
	"upper":  {1, 1, stringArgResult(types.String)},
	"substr": {2, 3, func(args []Expr) (types.Type, error) {
		if args[0].Type() != types.String {
			return types.Unknown, fmt.Errorf("substr expects a string, got %s", args[0].Type())
		}
		for _, a := range args[1:] {
			if a.Type() != types.Int64 {
				return types.Unknown, fmt.Errorf("substr positions must be integers")
			}
		}
		return types.String, nil
	}},
}

// typeFuncCall type-checks a scalar or aggregate function call.
func typeFuncCall(name string, args []Expr, star bool) (Expr, error) {
	name = strings.ToLower(name)
	if AggregateFuncs[name] {
		return typeAggCall(name, args, star)
	}
	sig, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	if len(args) < sig.minArgs || len(args) > sig.maxArgs {
		return nil, fmt.Errorf("function %s: wrong argument count %d", name, len(args))
	}
	t, err := sig.resultType(args)
	if err != nil {
		return nil, fmt.Errorf("function %s: %w", name, err)
	}
	// Widen numeric args for float-typed functions so the evaluator only
	// sees float inputs.
	if t == types.Float64 {
		for i, a := range args {
			if a.Type() == types.Int64 {
				args[i] = &Cast{E: a, To: types.Float64}
			}
		}
	}
	return &FuncCall{Name: name, Args: args, Typ: t}, nil
}

func typeAggCall(name string, args []Expr, star bool) (Expr, error) {
	if star {
		if name != "count" {
			return nil, fmt.Errorf("%s(*) is not valid", name)
		}
		return &FuncCall{Name: name, Star: true, Typ: types.Int64}, nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("aggregate %s expects one argument", name)
	}
	at := args[0].Type()
	var t types.Type
	switch name {
	case "count":
		t = types.Int64
	case "avg", "stddev", "variance":
		if !at.IsNumeric() {
			return nil, fmt.Errorf("%s expects a numeric argument, got %s", name, at)
		}
		t = types.Float64
	case "sum":
		if !at.IsNumeric() {
			return nil, fmt.Errorf("sum expects a numeric argument, got %s", at)
		}
		t = at
	case "min", "max":
		t = at
	default:
		return nil, fmt.Errorf("unknown aggregate %q", name)
	}
	return &FuncCall{Name: name, Args: args, Typ: t}, nil
}

// floatLoop returns the typed loop of a one-argument DOUBLE function, dst[i]
// = f(src[i]), and nil for any other name. Each loop calls its math function
// directly, so the compiler inlines it or emits its instruction; a function
// value called per row would be neither.
func floatLoop(name string) func(dst, src []float64) {
	switch name {
	case "sqrt":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Sqrt(x)
			}
		}
	case "exp":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Exp(x)
			}
		}
	case "ln":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Log(x)
			}
		}
	case "log":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Log10(x)
			}
		}
	case "floor":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Floor(x)
			}
		}
	case "ceil":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Ceil(x)
			}
		}
	case "round":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Round(x)
			}
		}
	case "sin":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Sin(x)
			}
		}
	case "cos":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Cos(x)
			}
		}
	case "abs":
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Abs(x)
			}
		}
	case "sign": // 0 for ±0 and NaN
		return func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				s := 0.0
				if x > 0 {
					s = 1
				} else if x < 0 {
					s = -1
				}
				dst[i] = s
			}
		}
	}
	return nil
}
