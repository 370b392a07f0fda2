package expr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"lambdadb/internal/types"
)

// builtin is a scalar built-in function, declared once for resolution and
// compilation alike: its arity, the types its arguments take, its result
// type, its NULL rule and its kernel.
type builtin struct {
	minArgs, maxArgs int
	// params is the type each argument position asks for (As), the last
	// one's standing for every later position. Unknown asks for the
	// arguments' common type (commonType), which the result then has too;
	// common is that type where no argument has one, and a numeric common
	// asks for numeric arguments.
	params []types.Type
	result types.Type // Unknown: the arguments' common type
	common types.Type
	// The NULL rule. A function whose rule is its own (coalesce, least,
	// greatest) compiles itself with own; every other one is strict: NULL
	// where any argument is, its kernel writing the other rows — a binary
	// operator's (op), floats, a typed loop over a DOUBLE argument, where it
	// has one, or fill.
	op     Op
	floats func(dst, src []float64)
	fill   func(out *types.Column, in []*types.Column) error
	own    func(c *compiler, n *FuncCall) (Evaluator, error)
}

// scalarFuncs holds every scalar built-in by name. Each float loop calls its
// math function directly, so the compiler inlines it or emits its
// instruction; a function value called per row would be neither.
var scalarFuncs map[string]builtin

// init builds scalarFuncs: the table names compiler methods that read it,
// a cycle that a package-level initializer may not have.
func init() {
	d, i, s, common := types.Float64, types.Int64, types.String, types.Unknown
	float := func(loop func(dst, src []float64)) builtin {
		return builtin{minArgs: 1, maxArgs: 1, params: []types.Type{d}, result: d, floats: loop}
	}
	str := func(result types.Type, fill func(out *types.Column, in []*types.Column) error) builtin {
		return builtin{minArgs: 1, maxArgs: 1, params: []types.Type{s}, result: result, fill: fill}
	}
	pow := builtin{minArgs: 2, maxArgs: 2, params: []types.Type{d}, result: d, op: OpPow}
	extreme := func(greatest bool) builtin {
		return builtin{minArgs: 2, maxArgs: 16, params: []types.Type{common}, common: d,
			own: func(c *compiler, n *FuncCall) (Evaluator, error) { return c.compileExtreme(n, greatest) }}
	}
	scalarFuncs = map[string]builtin{
		"abs": {minArgs: 1, maxArgs: 1, params: []types.Type{common}, common: d,
			floats: func(dst, src []float64) {
				dst = dst[:len(src)]
				for i, x := range src {
					dst[i] = math.Abs(x)
				}
			},
			fill: func(out *types.Column, in []*types.Column) error {
				for i, v := range in[0].Ints {
					if v == math.MinInt64 && !out.IsNull(i) {
						return types.ErrBigintRange
					}
					out.Ints[i] = max(v, -v)
				}
				return nil
			}},
		"sign": {minArgs: 1, maxArgs: 1, params: []types.Type{common}, common: d,
			floats: func(dst, src []float64) { // 0 for ±0 and NaN
				dst = dst[:len(src)]
				for i, x := range src {
					dst[i] = float64(b2i(x > 0) - b2i(x < 0))
				}
			},
			fill: func(out *types.Column, in []*types.Column) error {
				for i, v := range in[0].Ints {
					out.Ints[i] = int64(b2i(v > 0) - b2i(v < 0))
				}
				return nil
			}},
		"sqrt": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Sqrt(x)
			}
		}),
		"exp": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Exp(x)
			}
		}),
		"ln": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Log(x)
			}
		}),
		"log": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Log10(x)
			}
		}),
		"floor": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Floor(x)
			}
		}),
		"ceil": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Ceil(x)
			}
		}),
		"round": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Round(x)
			}
		}),
		"sin": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Sin(x)
			}
		}),
		"cos": float(func(dst, src []float64) {
			dst = dst[:len(src)]
			for i, x := range src {
				dst[i] = math.Cos(x)
			}
		}),
		"pow":      pow,
		"power":    pow,
		"least":    extreme(false),
		"greatest": extreme(true),
		"coalesce": {minArgs: 1, maxArgs: 16, params: []types.Type{common}, common: s,
			own: (*compiler).compileCoalesce},
		"length": str(i, func(out *types.Column, in []*types.Column) error {
			for i, s := range in[0].Strs {
				out.Ints[i] = int64(len(s))
			}
			return nil
		}),
		"lower": str(s, func(out *types.Column, in []*types.Column) error {
			return eachString(out, in[0], toLower)
		}),
		"upper": str(s, func(out *types.Column, in []*types.Column) error {
			return eachString(out, in[0], toUpper)
		}),
		"substr": {minArgs: 2, maxArgs: 3, params: []types.Type{s, i}, result: s, fill: substr},
	}
}

// ScalarFuncs returns the names of the scalar built-ins, sorted.
func ScalarFuncs() []string {
	names := make([]string, 0, len(scalarFuncs))
	for name := range scalarFuncs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// typeFuncCall type-checks a scalar or aggregate function call: each
// argument takes the type its position asks for (As).
func typeFuncCall(name string, args []Expr, star bool) (Expr, error) {
	name = strings.ToLower(name)
	if AggregateFuncs[name] {
		return typeAggCall(name, args, star)
	}
	f, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	if len(args) < f.minArgs || len(args) > f.maxArgs {
		return nil, fmt.Errorf("function %s: wrong argument count %d", name, len(args))
	}
	common := commonType(args, f.common)
	if f.common.IsNumeric() && !common.IsNumeric() {
		return nil, fmt.Errorf("function %s: expected numeric arguments, got %s", name, common)
	}
	for i, a := range args { // cmp.Or: Unknown, the zero Type, asks for common
		t := f.params[min(i, len(f.params)-1)]
		var err error
		if args[i], err = As(a, cmp.Or(t, common), fmt.Sprintf("%s argument %d", name, i+1)); err != nil {
			return nil, err
		}
	}
	return &FuncCall{Name: name, Args: args, Typ: cmp.Or(f.result, common)}, nil
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

// compileFunc compiles a scalar function call by its builtin's NULL rule.
func (c *compiler) compileFunc(n *FuncCall) (Evaluator, error) {
	f, ok := scalarFuncs[n.Name]
	switch {
	case AggregateFuncs[n.Name]:
		return nil, fmt.Errorf("aggregate %s evaluated outside GROUP BY context", n.Name)
	case !ok:
		return nil, fmt.Errorf("unknown function %q", n.Name)
	case f.own != nil:
		return f.own(c, n)
	case f.op != OpInvalid:
		return c.compileBinOp(&BinOp{Op: f.op, L: n.Args[0], R: n.Args[1], Typ: n.Typ})
	}
	args, err := c.compileAll(n.Args)
	if err != nil {
		return nil, err
	}
	if f.floats != nil && n.Typ == types.Float64 {
		return mapFloats(c.scratch.Buffer(), args[0], f.floats), nil
	}
	return strict(c.scratch.Buffer(), n.Typ, f.fill, args...), nil
}

func (c *compiler) compileAll(es []Expr) ([]Evaluator, error) {
	evs := make([]Evaluator, len(es))
	for i, e := range es {
		var err error
		if evs[i], err = c.compile(e); err != nil {
			return nil, err
		}
	}
	return evs, nil
}

// compileCoalesce compiles coalesce as the CASE that takes the first
// argument that is not NULL.
func (c *compiler) compileCoalesce(n *FuncCall) (Evaluator, error) {
	last := len(n.Args) - 1
	cs := &Case{Else: n.Args[last], Typ: n.Typ}
	for _, a := range n.Args[:last] {
		cs.Whens = append(cs.Whens, When{Cond: &IsNull{E: a, Negate: true}, Then: a})
	}
	return c.compileCase(cs)
}

// compileExtreme compiles least, or greatest, of BIGINT or DOUBLE args as
// PostgreSQL does: NULL arguments are ignored, so the result is NULL only
// where every argument is, and NaN is above every number.
func (c *compiler) compileExtreme(n *FuncCall, greatest bool) (Evaluator, error) {
	args, err := c.compileAll(n.Args)
	if err != nil {
		return nil, err
	}
	t, res := n.Typ, c.scratch.Buffer()
	return func(b *types.Batch) (*types.Column, error) {
		var out *types.Column
		for i, a := range args {
			c, err := a(b)
			switch {
			case err != nil:
				return nil, err
			case i == 0:
				out = res.Reset(t, c.Len())
				copy(out.Ints, c.Ints)
				copy(out.Floats, c.Floats)
				if c.Nulls != nil {
					copy(res.Nulls(c.Len()), c.Nulls)
				}
			case t == types.Int64:
				keepExtreme(out.Ints, c.Ints, out.Nulls, c.Nulls, greatest)
			default:
				keepExtreme(out.Floats, c.Floats, out.Nulls, c.Nulls, greatest)
			}
		}
		return out, nil
	}, nil
}

// keepExtreme replaces a row of dst (NULL where dnulls is) by src's where
// that is not NULL and dst's is, or sorts before it (after, for greatest).
func keepExtreme[T int64 | float64](dst, src []T, dnulls, snulls []bool, greatest bool) {
	for i, v := range src {
		switch {
		case isNull(snulls, i):
		case isNull(dnulls, i):
			dst[i], dnulls[i] = v, false
		case greatest && before(dst[i], v) || !greatest && before(v, dst[i]):
			dst[i] = v
		}
	}
}

// before reports whether x sorts before y, NaN after every number.
func before[T int64 | float64](x, y T) bool { return x < y || x == x && y != y }

// eachString sets every row of out that is not NULL to f of in's.
func eachString(out, in *types.Column, f func(string) string) error {
	for i, s := range in.Strs {
		if !out.IsNull(i) {
			out.Strs[i] = f(s)
		}
	}
	return nil
}

// substr is substr(s, start [, n]) over the rows that are not NULL.
// Positions are 1-based, and [start, end) is clipped to the string after
// end is placed, as in PostgreSQL: a start before the string eats into the
// length.
func substr(out *types.Column, in []*types.Column) error {
	for i, s := range in[0].Strs {
		if out.IsNull(i) {
			continue
		}
		start, end := in[1].Ints[i], int64(len(s))+1
		if len(in) == 3 {
			n := in[2].Ints[i]
			if n < 0 {
				return fmt.Errorf("negative substring length not allowed")
			}
			if start < end-n { // start+n < end, without overflow
				end = start + n
			}
		}
		start = min(max(start, 1), int64(len(s))+1)
		end = max(end, start)
		out.Strs[i] = s[start-1 : end-1]
	}
	return nil
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
