package plan

import (
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// Rebind deep-clones a plan so a cached template can be executed again:
// every node is copied (optimizer passes and the executor may annotate nodes
// in place, so cached templates are never run directly; a node type the
// child-mapper does not know fails the rebind), scans are stamped
// with a fresh snapshot, and $N parameter placeholders are substituted with
// the bound argument values. args[i] binds $i+1; values are coerced to the
// type inference stamped on each placeholder occurrence.
//
// Expression trees are shared with the template when there are no arguments
// to substitute — the executor compiles them read-only — and rewritten into
// fresh trees otherwise.
func Rebind(n Node, snapshot uint64, args []types.Value) (Node, error) {
	r := &rebinder{snapshot: snapshot, args: args}
	out := r.node(n)
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

type rebinder struct {
	snapshot uint64
	args     []types.Value
	err      error
	// shared memoizes Shared-node clones: a CTE referenced twice must stay
	// one node after cloning, or its materialization would run twice.
	shared map[Node]Node
}

func (r *rebinder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// bindParamValue coerces an argument to the placeholder's inferred type.
func bindParamValue(v types.Value, to types.Type, idx int) (types.Value, error) {
	cv, ok := types.Coerce(v, to)
	if !ok {
		return types.Value{}, fmt.Errorf("parameter $%d: cannot bind %s value where %s is expected", idx, v.T, to)
	}
	return cv, nil
}

func (r *rebinder) expr(e expr.Expr) expr.Expr {
	if e == nil || len(r.args) == 0 {
		return e
	}
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		p, ok := x.(*expr.Param)
		if !ok {
			return x
		}
		if p.Idx < 1 || p.Idx > len(r.args) {
			r.fail(fmt.Errorf("no argument bound for parameter $%d", p.Idx))
			return x
		}
		v, err := bindParamValue(r.args[p.Idx-1], p.Typ, p.Idx)
		if err != nil {
			r.fail(err)
			return x
		}
		return &expr.Const{Val: v}
	})
}

// lambda rebinds a λ argument's body.
func (r *rebinder) lambda(l *expr.Lambda) *expr.Lambda {
	if l == nil || len(r.args) == 0 {
		return l
	}
	return &expr.Lambda{Params: l.Params, Body: r.expr(l.Body)}
}

func (r *rebinder) exprs(es []expr.Expr) []expr.Expr {
	if es == nil {
		return nil
	}
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

// node copies one node — a struct copy, then the few fields that differ per
// execution — and rebinds its children through mapChildren.
func (r *rebinder) node(n Node) Node {
	if n == nil || r.err != nil {
		return n
	}
	if c, ok := r.shared[n]; ok {
		return c
	}
	c := shallowCopy(n)
	switch t := c.(type) {
	case nil:
		r.fail(fmt.Errorf("cannot rebind plan node %T", n))
		return n
	case *Scan:
		t.Snapshot = r.snapshot
	case *IndexScan:
		t.Snapshot = r.snapshot
		r.bindProbe(t)
	case *Filter:
		t.Pred = r.expr(t.Pred)
	case *Project:
		t.Exprs = r.exprs(t.Exprs)
	case *Join:
		t.On = r.expr(t.On)
		t.Residual = r.expr(t.Residual)
	case *Aggregate:
		t.Keys = r.exprs(t.Keys)
		if len(r.args) > 0 && t.Aggs != nil {
			t.Aggs = append([]AggSpec(nil), t.Aggs...)
			for i := range t.Aggs {
				t.Aggs[i].Arg = r.expr(t.Aggs[i].Arg)
			}
		}
	case *KMeans:
		t.Lambda = r.lambda(t.Lambda)
	case *KMeansAssign:
		t.Lambda = r.lambda(t.Lambda)
	case *PageRank:
		t.Lambda = r.lambda(t.Lambda)
	case *Shared:
		if r.shared == nil {
			r.shared = map[Node]Node{}
		}
		r.shared[n] = t
	}
	mapChildren(c, r.node)
	return c
}

// bindProbe fills an EqParam probe's key from the bound argument, coerced
// against the indexed column's declared type so the key compares like a
// stored value.
func (r *rebinder) bindProbe(s *IndexScan) {
	if s.EqParam <= 0 {
		return
	}
	if s.EqParam > len(r.args) {
		r.fail(fmt.Errorf("no argument bound for parameter $%d", s.EqParam))
		return
	}
	key := r.args[s.EqParam-1]
	for _, ci := range s.Rel.Schema() {
		if ci.Name == s.Column {
			v, err := bindParamValue(key, ci.Type, s.EqParam)
			if err != nil {
				r.fail(err)
				return
			}
			key = v
			break
		}
	}
	s.Eq = &key
	s.EqParam = 0
}
