// Package expr implements the typed expression engine: expression trees
// produced by the SQL parser, name resolution and type inference, and
// compilation to vectorized evaluator closures.
//
// Closure compilation is this reproduction's substitute for HyPer's LLVM
// code generation: each expression is compiled once per operator into a
// tree of Go closures, so per-row evaluation performs no type dispatch.
//
// The package also implements the paper's lambda expressions (Section 7):
// anonymous SQL functions such as `λ(a, b) (a.x-b.x)^2 + (a.y-b.y)^2` that
// parameterize analytical operators. A bound λ body is an ordinary
// expression: it compiles with Compile like any other.
package expr

import (
	"fmt"
	"strings"

	"lambdadb/internal/types"
)

// Expr is a node in an expression tree. Type returns types.Unknown before
// resolution.
type Expr interface {
	Type() types.Type
	String() string
}

// Op enumerates binary and unary operators.
type Op uint8

// Operators.
const (
	OpInvalid Op = iota
	// Arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow // ^ as in the paper's Listing 3
	// Comparison.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Logic.
	OpAnd
	OpOr
	OpNot
	// Unary arithmetic.
	OpNeg
	// String concatenation.
	OpConcat
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%", OpPow: "^",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT", OpNeg: "-", OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether o yields a boolean from two operands.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Flip is the comparison with its operands swapped: k < x is x > k. = and
// <> flip to themselves, as does an operator that is not a comparison.
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// IsArith reports whether o is an arithmetic operator.
func (o Op) IsArith() bool { return o >= OpAdd && o <= OpPow }

// Const is a literal value.
type Const struct {
	Val types.Value
}

// Type implements Expr.
func (c *Const) Type() types.Type { return c.Val.T }

func (c *Const) String() string {
	if c.Val.T == types.String && !c.Val.Null {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

// Param is a $N positional parameter placeholder (Idx is 1-based). Its type
// is Unknown until resolution infers one from the surrounding expression or
// a PREPARE type list stamps one on. Params survive into cached plans; the
// compiler binds each to its EXECUTE argument (Arg), and one left unbound
// fails the compile.
type Param struct {
	Idx int
	Typ types.Type
}

// Type implements Expr.
func (p *Param) Type() types.Type { return p.Typ }

func (p *Param) String() string { return fmt.Sprintf("$%d", p.Idx) }

// ColRef references a column, optionally qualified by a table alias.
// Index is -1 until resolution binds it to a position in the input schema.
type ColRef struct {
	Table string
	Name  string
	Index int
	Typ   types.Type
}

// Type implements Expr.
func (c *ColRef) Type() types.Type { return c.Typ }

func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// BinOp is a binary operation.
type BinOp struct {
	Op   Op
	L, R Expr
	Typ  types.Type
}

// Type implements Expr.
func (b *BinOp) Type() types.Type { return b.Typ }

func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnOp is a unary operation (NOT, negation).
type UnOp struct {
	Op  Op
	E   Expr
	Typ types.Type
}

// Type implements Expr.
func (u *UnOp) Type() types.Type { return u.Typ }

func (u *UnOp) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }

// FuncCall is a scalar or aggregate function call. The planner decides
// which names are aggregates; the expression engine evaluates only scalars.
type FuncCall struct {
	Name string // lower-case
	Args []Expr
	Typ  types.Type
	// Star marks COUNT(*).
	Star bool
}

// Type implements Expr.
func (f *FuncCall) Type() types.Type { return f.Typ }

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil (NULL)
	Typ   types.Type
}

// When is one WHEN cond THEN result arm.
type When struct {
	Cond Expr
	Then Expr
}

// Type implements Expr.
func (c *Case) Type() types.Type { return c.Typ }

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Cast converts an expression to a target type.
type Cast struct {
	E  Expr
	To types.Type
}

// Type implements Expr.
func (c *Cast) Type() types.Type { return c.To }

func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }

// IsNull tests nullness; with Negate it is IS NOT NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Type implements Expr.
func (i *IsNull) Type() types.Type { return types.Bool }

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// Like is `expr [NOT] LIKE 'pattern'` with % (any sequence) and _ (any
// single byte) wildcards.
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
}

// Type implements Expr.
func (l *Like) Type() types.Type { return types.Bool }

func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s '%s')", l.E, op, l.Pattern)
}

// Lambda is an anonymous SQL function: parameter names plus a body whose
// column references name parameter fields, such as a.x. Input and output
// types are inferred when the lambda is bound to an operator variation point
// (paper Section 7).
type Lambda struct {
	Params []string
	Body   Expr
}

func (l *Lambda) String() string {
	return "λ(" + strings.Join(l.Params, ", ") + ") " + l.Body.String()
}

// Walk visits e and all children in preorder. The visitor returns false to
// stop descending into a node's children.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *BinOp:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *UnOp:
		Walk(n.E, visit)
	case *FuncCall:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	case *Case:
		for _, w := range n.Whens {
			Walk(w.Cond, visit)
			Walk(w.Then, visit)
		}
		if n.Else != nil {
			Walk(n.Else, visit)
		}
	case *Cast:
		Walk(n.E, visit)
	case *IsNull:
		Walk(n.E, visit)
	case *Like:
		Walk(n.E, visit)
	}
}

// Rewrite returns a copy of e with fn applied bottom-up: children are
// rewritten first, then fn transforms the node itself.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *BinOp:
		c := *n
		c.L = Rewrite(n.L, fn)
		c.R = Rewrite(n.R, fn)
		return fn(&c)
	case *UnOp:
		c := *n
		c.E = Rewrite(n.E, fn)
		return fn(&c)
	case *FuncCall:
		c := *n
		c.Args = make([]Expr, len(n.Args))
		for i, a := range n.Args {
			c.Args[i] = Rewrite(a, fn)
		}
		return fn(&c)
	case *Case:
		c := *n
		c.Whens = make([]When, len(n.Whens))
		for i, w := range n.Whens {
			c.Whens[i] = When{Rewrite(w.Cond, fn), Rewrite(w.Then, fn)}
		}
		if n.Else != nil {
			c.Else = Rewrite(n.Else, fn)
		}
		return fn(&c)
	case *Cast:
		c := *n
		c.E = Rewrite(n.E, fn)
		return fn(&c)
	case *IsNull:
		c := *n
		c.E = Rewrite(n.E, fn)
		return fn(&c)
	case *Like:
		c := *n
		c.E = Rewrite(n.E, fn)
		return fn(&c)
	default:
		return fn(e)
	}
}

// ReferencedColumns returns the set of column indices referenced by e.
// All ColRefs must be resolved.
func ReferencedColumns(e Expr, into map[int]bool) {
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColRef); ok && c.Index >= 0 {
			into[c.Index] = true
		}
		return true
	})
}
