package expr

import (
	"cmp"
	"fmt"
	"strings"

	"lambdadb/internal/types"
)

// ResolveCtx provides the naming environment for binding column references:
// a schema plus, per column, the table alias that qualifies it (may be "").
type ResolveCtx struct {
	Schema types.Schema
	Quals  []string
}

// NewResolveCtx builds a context where every column carries the same
// qualifier.
func NewResolveCtx(schema types.Schema, qual string) *ResolveCtx {
	quals := make([]string, len(schema))
	for i := range quals {
		quals[i] = qual
	}
	return &ResolveCtx{Schema: schema, Quals: quals}
}

// Lookup finds the column index for a (table, name) reference. It returns
// an error for unknown or ambiguous references.
func (rc *ResolveCtx) Lookup(table, name string) (int, error) {
	found := -1
	for i, c := range rc.Schema {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(rc.Quals[i], table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", refName(table, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("unknown column %q", refName(table, name))
	}
	return found, nil
}

func refName(table, name string) string {
	if table != "" {
		return table + "." + name
	}
	return name
}

// Resolve binds all column references in e against rc and infers types,
// returning a new, fully typed tree. Numeric operands are widened to
// Float64 where an operator mixes Int64 and Float64.
func Resolve(e Expr, rc *ResolveCtx) (Expr, error) {
	switch n := e.(type) {
	case *Const:
		return n, nil

	case *Param:
		// Return a copy so type inference (typeBinOp) can stamp a type on
		// this occurrence without mutating the statement AST, which may be
		// re-resolved later with different bindings.
		return &Param{Idx: n.Idx, Typ: n.Typ}, nil

	case *ColRef:
		idx, err := rc.Lookup(n.Table, n.Name)
		if err != nil {
			return nil, err
		}
		return &ColRef{Table: n.Table, Name: n.Name, Index: idx, Typ: rc.Schema[idx].Type}, nil

	case *BinOp:
		l, err := Resolve(n.L, rc)
		if err != nil {
			return nil, err
		}
		r, err := Resolve(n.R, rc)
		if err != nil {
			return nil, err
		}
		return typeBinOp(n.Op, l, r)

	case *UnOp:
		inner, err := Resolve(n.E, rc)
		if err != nil {
			return nil, err
		}
		return typeUnOp(n.Op, inner)

	case *FuncCall:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := Resolve(a, rc)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return typeFuncCall(n.Name, args, n.Star)

	case *Case:
		out := &Case{Whens: make([]When, len(n.Whens))}
		var arms []Expr
		for i, w := range n.Whens {
			cond, err := resolveAs(w.Cond, rc, types.Bool, "CASE WHEN")
			if err != nil {
				return nil, err
			}
			then, err := Resolve(w.Then, rc)
			if err != nil {
				return nil, err
			}
			out.Whens[i], arms = When{cond, then}, append(arms, then)
		}
		if n.Else != nil {
			els, err := Resolve(n.Else, rc)
			if err != nil {
				return nil, err
			}
			out.Else, arms = els, append(arms, els)
		}
		out.Typ = commonType(arms, types.String)
		for i, arm := range arms {
			arm, err := As(arm, out.Typ, "CASE result")
			if err != nil {
				return nil, err
			}
			if i < len(out.Whens) {
				out.Whens[i].Then = arm
			} else {
				out.Else = arm
			}
		}
		return out, nil

	case *Cast:
		inner, err := Resolve(n.E, rc)
		if err != nil {
			return nil, err
		}
		return castTo(inner, n.To), nil // a cast to its operand's type is a no-op

	case *IsNull:
		inner, err := Resolve(n.E, rc)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: n.Negate}, nil

	case *Like:
		inner, err := resolveAs(n.E, rc, types.String, "LIKE operand")
		if err != nil {
			return nil, err
		}
		return &Like{E: inner, Pattern: n.Pattern, Negate: n.Negate}, nil

	default:
		return nil, fmt.Errorf("cannot resolve expression %T", e)
	}
}

// As returns e where its position asks for a value of type t — a
// function's argument, a CASE arm, a condition, a column that SET assigns:
// an untyped NULL or $N takes t, a BIGINT widens to a DOUBLE t, and e of any
// other type is an error that names what. e is Resolve's output, whose $N
// it types in place.
func As(e Expr, t types.Type, what string) (Expr, error) {
	e = typed(e, t)
	if et := e.Type(); et != t && !(et == types.Int64 && t == types.Float64) {
		return nil, fmt.Errorf("%s must be %s, got %s", what, t, et)
	}
	return castTo(e, t), nil
}

// resolveAs resolves e against rc and returns it As t.
func resolveAs(e Expr, rc *ResolveCtx, t types.Type, what string) (Expr, error) {
	r, err := Resolve(e, rc)
	if err != nil {
		return nil, err
	}
	return As(r, t, what)
}

// typed returns e with type t where e is an untyped NULL or $N, and e
// otherwise. A $N is Resolve's copy, so it takes t in place.
func typed(e Expr, t types.Type) Expr {
	switch n := e.(type) {
	case *Const:
		if n.Val.Null && n.Val.T == types.Unknown {
			return &Const{Val: types.NewNull(t)}
		}
	case *Param:
		if n.Typ == types.Unknown {
			n.Typ = t
		}
	}
	return e
}

// castTo wraps e in a Cast to t unless e has type t; an untyped NULL or $N
// takes t.
func castTo(e Expr, t types.Type) Expr {
	if e = typed(e, t); e.Type() == t {
		return e
	}
	return &Cast{E: e, To: t}
}

// commonType is the type that each of es converts to (As): the first one's
// that has a type, or DOUBLE where two numeric types meet; fallback where
// none has a type.
func commonType(es []Expr, fallback types.Type) types.Type {
	t := types.Unknown
	for _, e := range es {
		switch et := e.Type(); {
		case t == types.Unknown:
			t = et
		case t != et && t.IsNumeric() && et.IsNumeric():
			t = types.Float64
		}
	}
	return cmp.Or(t, fallback)
}

func typeBinOp(op Op, l, r Expr) (Expr, error) {
	// An untyped operand, NULL or $N, takes the other operand's type.
	l = typed(l, r.Type())
	r = typed(r, l.Type())
	if p, ok := l.(*Param); ok && p.Typ == types.Unknown {
		return nil, fmt.Errorf("cannot infer a type for parameter $%d; declare one with PREPARE name (TYPE, ...) AS ...", p.Idx)
	}
	if p, ok := r.(*Param); ok && p.Typ == types.Unknown {
		return nil, fmt.Errorf("cannot infer a type for parameter $%d; declare one with PREPARE name (TYPE, ...) AS ...", p.Idx)
	}
	lt, rt := l.Type(), r.Type()
	switch {
	case op.IsArith():
		if !lt.IsNumeric() || !rt.IsNumeric() {
			return nil, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, lt, rt)
		}
		out := types.Int64
		if lt == types.Float64 || rt == types.Float64 || op == OpDiv || op == OpPow {
			out = types.Float64
		}
		if out == types.Float64 {
			l, r = castTo(l, types.Float64), castTo(r, types.Float64)
		}
		return &BinOp{Op: op, L: l, R: r, Typ: out}, nil

	case op.IsComparison():
		if lt.IsNumeric() && rt.IsNumeric() {
			if lt != rt {
				l, r = castTo(l, types.Float64), castTo(r, types.Float64)
			}
		} else if lt != rt || lt == types.Unknown {
			return nil, fmt.Errorf("cannot compare %s with %s", lt, rt)
		}
		return &BinOp{Op: op, L: l, R: r, Typ: types.Bool}, nil

	case op == OpAnd || op == OpOr:
		if lt != types.Bool || rt != types.Bool {
			return nil, fmt.Errorf("%s requires boolean operands, got %s and %s", op, lt, rt)
		}
		return &BinOp{Op: op, L: l, R: r, Typ: types.Bool}, nil

	case op == OpConcat:
		if lt != types.String || rt != types.String {
			return nil, fmt.Errorf("|| requires string operands, got %s and %s", lt, rt)
		}
		return &BinOp{Op: op, L: l, R: r, Typ: types.String}, nil
	}
	return nil, fmt.Errorf("unsupported binary operator %s", op)
}

func typeUnOp(op Op, e Expr) (Expr, error) {
	switch op {
	case OpNeg:
		if !e.Type().IsNumeric() {
			return nil, fmt.Errorf("unary - requires a numeric operand, got %s", e.Type())
		}
		return &UnOp{Op: OpNeg, E: e, Typ: e.Type()}, nil
	case OpNot:
		e, err := As(e, types.Bool, "NOT operand")
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: OpNot, E: e, Typ: types.Bool}, nil
	}
	return nil, fmt.Errorf("unsupported unary operator %s", op)
}

// AggregateFuncs lists the aggregate function names the planner extracts
// from expressions. The expression engine itself never evaluates them.
var AggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"stddev": true, "variance": true,
}

// IsAggregate reports whether e contains an aggregate function call.
func IsAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*FuncCall); ok && AggregateFuncs[f.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}
