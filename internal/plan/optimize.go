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

// Optimize applies the rule-based optimizer: predicate pushdown and filter
// merging. As the paper observes (Section 5.2), selections cannot be pushed
// through analytical operators because their results depend on the whole
// input; pushdown therefore stops at Iterate, KMeans, PageRank, Naive
// Bayes, Aggregate, and RecursiveCTE boundaries. Cost-based decisions
// (join order, build sides, index scans) follow in OptimizeAccess, which
// BuildSelect runs right after — build-side swaps insert restoring
// Projects that would otherwise hide join trees from the reordering pass.
func Optimize(n Node) Node {
	// Two passes: filters freed by one rule (e.g. hoisted through a
	// projection) become candidates for the next (e.g. join pushdown).
	for i := 0; i < 2; i++ {
		n = rewriteTree(n, mergeFilters)
		n = rewriteTree(n, pushFilterThroughAlias)
		n = rewriteTree(n, pushFilterThroughProject)
		n = rewriteTree(n, pushFilterThroughJoin)
		n = rewriteTree(n, pushFilterThroughUnion)
		n = rewriteTree(n, mergeFilters)
	}
	n = rewriteTree(n, fuseTopK)
	return n
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

// pushFilterThroughAlias commutes Filter(Alias(x)) to Alias(Filter(x));
// aliasing changes qualifiers only, never column positions.
func pushFilterThroughAlias(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	a, ok := f.Child.(*Alias)
	if !ok {
		return n
	}
	a.Child = &Filter{Child: a.Child, Pred: f.Pred}
	return a
}

// pushFilterThroughProject moves a filter below a projection when every
// column the predicate references maps to a plain column reference in the
// projection (pure renames/reorders). Computed projection expressions are
// not substituted to avoid duplicating work.
func pushFilterThroughProject(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	p, ok := f.Child.(*Project)
	if !ok {
		return n
	}
	refs := map[int]bool{}
	expr.ReferencedColumns(f.Pred, refs)
	mapping := map[int]*expr.ColRef{}
	for idx := range refs {
		if idx >= len(p.Exprs) {
			return n
		}
		src, ok := p.Exprs[idx].(*expr.ColRef)
		if !ok {
			return n
		}
		mapping[idx] = src
	}
	newPred := expr.Rewrite(f.Pred, func(e expr.Expr) expr.Expr {
		if c, ok := e.(*expr.ColRef); ok && c.Index >= 0 {
			if src, ok := mapping[c.Index]; ok {
				cc := *src
				return &cc
			}
		}
		return e
	})
	p.Child = &Filter{Child: p.Child, Pred: newPred}
	return p
}

// rewriteTree applies fn bottom-up over the plan, in place. A Shared
// subtree is visited once per reference; the rules are idempotent, and
// filters never push across the Shared boundary, so repeated application is
// safe.
func rewriteTree(n Node, fn func(Node) Node) Node {
	mapChildren(n, func(c Node) Node { return rewriteTree(c, fn) })
	return fn(n)
}

// mergeFilters collapses Filter(Filter(x)) into a single conjunction and
// drops always-true predicates.
func mergeFilters(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	if c, ok := f.Pred.(*expr.Const); ok && !c.Val.Null && c.Val.T == types.Bool && c.Val.B {
		return f.Child
	}
	inner, ok := f.Child.(*Filter)
	if !ok {
		return f
	}
	return &Filter{
		Child: inner.Child,
		Pred: &expr.BinOp{Op: expr.OpAnd, L: inner.Pred, R: f.Pred,
			Typ: types.Bool},
	}
}

// pushFilterThroughJoin moves single-side conjuncts of a Filter above an
// inner or cross join down to the side they reference.
func pushFilterThroughJoin(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	j, ok := f.Child.(*Join)
	if !ok || j.Type == LeftJoin {
		// Pushing into the nullable side of an outer join changes
		// semantics; keep it simple and skip left joins entirely.
		return n
	}
	nl := len(j.L.Schema())
	var leftPreds, rightPreds, keep []expr.Expr
	for _, c := range splitConjuncts(f.Pred) {
		refs := map[int]bool{}
		expr.ReferencedColumns(c, refs)
		leftOnly, rightOnly := true, true
		for idx := range refs {
			if idx < nl {
				rightOnly = false
			} else {
				leftOnly = false
			}
		}
		switch {
		case leftOnly && len(refs) > 0:
			leftPreds = append(leftPreds, c)
		case rightOnly && len(refs) > 0:
			rightPreds = append(rightPreds, shiftColRefs(c, -nl))
		default:
			keep = append(keep, c)
		}
	}
	if len(leftPreds) == 0 && len(rightPreds) == 0 {
		return n
	}
	if p := combineConjuncts(leftPreds); p != nil {
		j.L = &Filter{Child: j.L, Pred: p}
	}
	if p := combineConjuncts(rightPreds); p != nil {
		j.R = &Filter{Child: j.R, Pred: p}
	}
	if p := combineConjuncts(keep); p != nil {
		return &Filter{Child: j, Pred: p}
	}
	return j
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

// pushFilterThroughUnion duplicates a filter into both union branches.
func pushFilterThroughUnion(n Node) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	u, ok := f.Child.(*Union)
	if !ok {
		return n
	}
	u.L = &Filter{Child: u.L, Pred: f.Pred}
	u.R = &Filter{Child: u.R, Pred: clone(f.Pred)}
	return u
}

func clone(e expr.Expr) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr { return n })
}

// chooseBuildSide swaps hash-join inputs so the smaller side is the build
// side (the executor builds on the left).
func chooseBuildSide(n Node) Node {
	j, ok := n.(*Join)
	if !ok || j.Type != InnerJoin || len(j.EquiLeft) == 0 {
		return n
	}
	if j.L.Card() <= j.R.Card() {
		return n
	}
	nl := len(j.L.Schema())
	nr := len(j.R.Schema())
	swapped := &Join{
		Type: InnerJoin, L: j.R, R: j.L,
		EquiLeft: j.EquiRight, EquiRight: j.EquiLeft,
	}
	if j.Residual != nil {
		swapped.Residual = remapAcrossSwap(j.Residual, nl, nr)
	}
	if j.On != nil {
		swapped.On = remapAcrossSwap(j.On, nl, nr)
	}
	// Restore the original column order on top.
	schema := j.Schema()
	exprs := make([]expr.Expr, len(schema))
	names := make([]string, len(schema))
	for i := range schema {
		src := i + nr // original left columns now live after the right's
		if i >= nl {
			src = i - nl // original right columns now lead
		}
		exprs[i] = &expr.ColRef{Name: schema[i].Name, Index: src, Typ: schema[i].Type}
		names[i] = schema[i].Name
	}
	return &Project{Child: swapped, Exprs: exprs, Names: names}
}

// remapAcrossSwap rewrites column indices for a swapped join: old left
// columns [0,nl) move to [nr, nr+nl), old right columns [nl, nl+nr) move to
// [0, nr).
func remapAcrossSwap(e expr.Expr, nl, nr int) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		c, ok := n.(*expr.ColRef)
		if !ok || c.Index < 0 {
			return n
		}
		cc := *c
		if c.Index < nl {
			cc.Index = c.Index + nr
		} else {
			cc.Index = c.Index - nl
		}
		return &cc
	})
}
