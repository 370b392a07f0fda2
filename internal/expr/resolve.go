package expr

import (
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
		var resultType types.Type
		for i, w := range n.Whens {
			cond, err := Resolve(w.Cond, rc)
			if err != nil {
				return nil, err
			}
			if cond.Type() != types.Bool {
				return nil, fmt.Errorf("CASE WHEN condition must be boolean, got %s", cond.Type())
			}
			then, err := Resolve(w.Then, rc)
			if err != nil {
				return nil, err
			}
			out.Whens[i] = When{cond, then}
			resultType = unifyTypes(resultType, then.Type())
		}
		if n.Else != nil {
			els, err := Resolve(n.Else, rc)
			if err != nil {
				return nil, err
			}
			out.Else = els
			resultType = unifyTypes(resultType, els.Type())
		}
		if resultType == types.Unknown {
			return nil, fmt.Errorf("cannot infer CASE result type")
		}
		out.Typ = resultType
		// Insert casts so all arms produce the unified type.
		for i := range out.Whens {
			out.Whens[i].Then = castTo(out.Whens[i].Then, resultType)
		}
		if out.Else != nil {
			out.Else = castTo(out.Else, resultType)
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
		inner, err := Resolve(n.E, rc)
		if err != nil {
			return nil, err
		}
		if inner.Type() != types.String {
			return nil, fmt.Errorf("LIKE requires a string operand, got %s", inner.Type())
		}
		return &Like{E: inner, Pattern: n.Pattern, Negate: n.Negate}, nil

	default:
		return nil, fmt.Errorf("cannot resolve expression %T", e)
	}
}

// unifyTypes picks a common type for two branches, widening numerics.
func unifyTypes(a, b types.Type) types.Type {
	if a == types.Unknown {
		return b
	}
	if b == types.Unknown || a == b {
		return a
	}
	if a.IsNumeric() && b.IsNumeric() {
		return types.Float64
	}
	return a
}

// castTo wraps e in a Cast when its type differs from t; a NULL constant
// becomes a NULL of type t.
func castTo(e Expr, t types.Type) Expr {
	if e.Type() == t {
		return e
	}
	if isNullConst(e) {
		return &Const{Val: types.NewNull(t)}
	}
	return &Cast{E: e, To: t}
}

// adoptParamType lets an untyped Param take the type of the expression on
// the other side of a binary operator, so `id = $1` types $1 from `id`.
func adoptParamType(a, b Expr) {
	if p, ok := a.(*Param); ok && p.Typ == types.Unknown && b.Type() != types.Unknown {
		if _, otherParam := b.(*Param); !otherParam {
			p.Typ = b.Type()
		}
	}
}

// adoptNullType gives a bare NULL literal the type of the other operand, as
// adoptParamType does for $n: `x < NULL` compares x with a NULL of x's type.
func adoptNullType(e, other Expr) Expr {
	if c, ok := e.(*Const); ok && c.Val.Null && c.Val.T == types.Unknown {
		return &Const{Val: types.NewNull(other.Type())}
	}
	return e
}

func typeBinOp(op Op, l, r Expr) (Expr, error) {
	adoptParamType(l, r)
	adoptParamType(r, l)
	l, r = adoptNullType(l, r), adoptNullType(r, l)
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
		if e.Type() != types.Bool {
			return nil, fmt.Errorf("NOT requires a boolean operand, got %s", e.Type())
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
