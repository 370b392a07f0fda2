package plan

import (
	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// Fold performs constant folding on a resolved expression: any subtree that
// references no columns is evaluated once at plan time.
func Fold(e expr.Expr) expr.Expr {
	if e == nil {
		return nil
	}
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		switch n.(type) {
		case *expr.Const, *expr.ColRef:
			return n
		}
		if !expr.IsConst(n) {
			return n
		}
		v, err := expr.EvalConst(n, nil)
		if err != nil {
			// Leave runtime errors (1/0, bad casts) to execution.
			return n
		}
		return &expr.Const{Val: v}
	})
}

// Optimize applies the rule-based optimizer: one placement pass, then Limit
// over Sort fuses into a top-k sort. Cost-based decisions (join order, build
// sides, index scans) follow in OptimizeAccess, which BuildSelect runs right
// after.
func Optimize(n Node) Node {
	n = place(n, nil)
	return rewriteTree(n, fuseTopK)
}

// place returns n with the conjuncts conj, resolved against n's output,
// applied as deep in n as each is valid. For an inner join ON and WHERE are
// one condition: a conjunct reading one side goes to that side, one reading
// both becomes the join's condition, one reading no column stays above. As
// the paper observes (Section 5.2), selections cannot be pushed through
// analytical operators because their results depend on the whole input;
// they, left joins, Shared, Sort, Limit, Distinct, Aggregate, Iterate and
// RecursiveCTE stop the pass, and their inputs are placed with nothing
// carried in from above.
func place(n Node, conj []expr.Expr) Node {
	switch t := n.(type) {
	case *Filter:
		if t.Sel > 0 && len(conj) == 0 {
			return t // on its scan since OptimizeAccess estimated it: keep the estimate
		}
		return place(t.Child, append(conjuncts(t.Pred), conj...))
	case *Alias: // renames qualifiers only, never column positions
		t.Child = place(t.Child, conj)
		return t
	case *Project:
		var down, keep []expr.Expr
		for _, c := range conj {
			if d := throughProject(c, t.Exprs); d != nil {
				down = append(down, d)
			} else {
				keep = append(keep, c)
			}
		}
		t.Child = place(t.Child, down)
		return filterOver(t, keep)
	case *Join:
		if t.Type != LeftJoin {
			return placeJoin(t, conj)
		}
	case *Union:
		t.L, t.R = place(t.L, conj), place(t.R, conj)
		return t
	}
	mapChildren(n, func(c Node) Node { return place(c, nil) })
	return filterOver(n, conj)
}

// placeJoin pools the conjuncts from above with an inner or cross join's
// condition and places each one.
func placeJoin(j *Join, conj []expr.Expr) Node {
	nl := len(j.L.Schema())
	var left, right, on, keep []expr.Expr
	for _, c := range append(conjuncts(j.On), conj...) {
		refs := map[int]bool{}
		expr.ReferencedColumns(c, refs)
		readsL, readsR := false, false
		for idx := range refs {
			readsL, readsR = readsL || idx < nl, readsR || idx >= nl
		}
		switch {
		case readsL && readsR:
			on = append(on, c)
		case readsL:
			left = append(left, c)
		case readsR:
			right = append(right, shiftColRefs(c, -nl))
		default:
			keep = append(keep, c)
		}
	}
	return filterOver(NewJoin(InnerJoin, place(j.L, left), place(j.R, right), combineConjuncts(on)), keep)
}

// conjuncts splits a predicate into its conjuncts, dropping always-true ones.
func conjuncts(e expr.Expr) []expr.Expr {
	var out []expr.Expr
	for _, c := range splitConjuncts(e) {
		if k, ok := c.(*expr.Const); !ok || k.Val.Null || k.Val.T != types.Bool || !k.Val.B {
			out = append(out, c)
		}
	}
	return out
}

// throughProject rewrites a conjunct over a projection's output to its
// input, or returns nil unless every column it reads is a plain column
// reference (computed expressions are not substituted, so no work is
// duplicated).
func throughProject(c expr.Expr, exprs []expr.Expr) expr.Expr {
	refs := map[int]bool{}
	expr.ReferencedColumns(c, refs)
	for idx := range refs {
		if idx >= len(exprs) {
			return nil
		}
		if _, ok := exprs[idx].(*expr.ColRef); !ok {
			return nil
		}
	}
	return expr.Rewrite(c, func(e expr.Expr) expr.Expr {
		if r, ok := e.(*expr.ColRef); ok && r.Index >= 0 {
			src := *exprs[r.Index].(*expr.ColRef)
			return &src
		}
		return e
	})
}

// filterOver puts the conjuncts in one Filter above n, or returns n when
// there are none.
func filterOver(n Node, conj []expr.Expr) Node {
	if len(conj) == 0 {
		return n
	}
	return &Filter{Child: n, Pred: combineConjuncts(conj)}
}

// fuseTopK turns Limit over Sort into a bounded top-k sort: the heap keeps
// offset+limit rows and the Limit node on top still applies the offset.
func fuseTopK(n Node) Node {
	l, ok := n.(*Limit)
	if !ok || l.N < 0 {
		return n
	}
	srt, ok := l.Child.(*Sort)
	if !ok || srt.TopK >= 0 {
		return n
	}
	srt.TopK = l.N + l.Offset
	return l
}

// rewriteTree applies fn bottom-up over the plan, in place. A Shared
// subtree is visited once per reference; the rules are idempotent, so
// repeated application is safe.
func rewriteTree(n Node, fn func(Node) Node) Node {
	mapChildren(n, func(c Node) Node { return rewriteTree(c, fn) })
	return fn(n)
}

// shiftColRefs rebases resolved column indices by delta.
func shiftColRefs(e expr.Expr, delta int) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.ColRef); ok && c.Index >= 0 {
			cc := *c
			cc.Index += delta
			return &cc
		}
		return n
	})
}

// chooseBuildSide builds an inner join with keys on its smaller input.
func chooseBuildSide(n Node) Node {
	if j, ok := n.(*Join); ok && j.Type == InnerJoin && len(j.EquiLeft) > 0 {
		j.BuildRight = j.L.Card() > j.R.Card()
	}
	return n
}
