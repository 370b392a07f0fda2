package plan

import (
	"slices"

	"lambdadb/internal/catalog"
	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// ---------------------------------------------------------------------------
// Cost-based access-path selection
//
// OptimizeAccess runs after the rule-based Optimize pass and uses table
// statistics (when ANALYZE has collected them) plus index metadata to pick
// physical access paths:
//
//  1. Filter selectivities are re-estimated from column statistics, so
//     cardinalities flowing up the tree reflect the data rather than the
//     predicate shape.
//  2. Inner/cross join trees of three or more relations are flattened and
//     re-assembled greedily, smallest estimated input first, preferring
//     equi-connected relations (avoiding accidental cross products).
//  3. Hash-join build sides are chosen by estimated cardinality: a join
//     records the side it builds on (Join.BuildRight).
//  4. Selective Filter(Scan) pairs are rewritten into IndexScan probes when
//     a matching secondary index exists and the estimated selectivity
//     clears the threshold; non-absorbed conjuncts stay in a residual
//     Filter above.
//
// Every rewrite preserves output column order: the reorder picks an order
// only, hands every join conjunct to the placement pass, and restores the
// original column order with a Project where the order permutes it.
// ---------------------------------------------------------------------------

// indexScanMaxSelectivity gates index-scan selection: probes estimated to
// touch more than this fraction of the table fall back to the vectorized
// full scan, which wins on bandwidth for non-selective predicates.
const indexScanMaxSelectivity = 0.25

// OptimizeAccess applies statistics- and index-driven rewrites. stats may
// be nil (nothing analyzed yet); index metadata alone still enables point
// probes via the distinct-key count.
func OptimizeAccess(n Node, stats StatsProvider) Node {
	n = rewriteTree(n, func(m Node) Node { return applyStatsSelectivity(m, stats) })
	n = reorderJoins(n)
	n = rewriteTree(n, chooseBuildSide)
	n = rewriteTree(n, func(m Node) Node { return chooseIndexScan(m, stats) })
	return n
}

// ---------------------------------------------------------------------------
// 1. Statistics-derived filter selectivity
// ---------------------------------------------------------------------------

// applyStatsSelectivity sets Filter.Sel for filters sitting directly on a
// table scan, multiplying per-conjunct estimates from the column stats.
func applyStatsSelectivity(n Node, stats StatsProvider) Node {
	f, ok := n.(*Filter)
	if !ok || stats == nil {
		return n
	}
	scan, ok := f.Child.(*Scan)
	if !ok {
		return n
	}
	ts, ok := stats.TableStats(scan.Rel.Name())
	if !ok {
		return n
	}
	schema := scan.Schema()
	sel := 1.0
	for _, c := range splitConjuncts(f.Pred) {
		sel *= conjunctSelectivity(c, schema, ts)
	}
	f.Sel = clamp01(sel)
	return n
}

// conjunctSelectivity estimates one conjunct: column-vs-constant
// comparisons use the stats, everything else the shape heuristic.
func conjunctSelectivity(c expr.Expr, schema types.Schema, ts *TableStats) float64 {
	col, op, val, ok := colOpConst(c)
	if !ok || col >= len(schema) {
		return selectivity(c)
	}
	name := schema[col].Name
	switch op {
	case expr.OpEq:
		return ts.EqSelectivity(name)
	case expr.OpLt, expr.OpLe:
		return ts.RangeSelectivity(name, nil, &val)
	case expr.OpGt, expr.OpGe:
		return ts.RangeSelectivity(name, &val, nil)
	}
	return selectivity(c)
}

// colOpConst matches a conjunct of the form `col op const` (either
// orientation; the op is flipped when the constant is on the left).
// NULL constants do not match — such predicates never pass any row.
func colOpConst(c expr.Expr) (col int, op expr.Op, val types.Value, ok bool) {
	b, isBin := c.(*expr.BinOp)
	if !isBin {
		return 0, 0, types.Value{}, false
	}
	switch b.Op {
	case expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
	default:
		return 0, 0, types.Value{}, false
	}
	if cr, isCol := b.L.(*expr.ColRef); isCol && cr.Index >= 0 {
		if cn, isConst := b.R.(*expr.Const); isConst && !cn.Val.Null {
			return cr.Index, b.Op, cn.Val, true
		}
	}
	if cr, isCol := b.R.(*expr.ColRef); isCol && cr.Index >= 0 {
		if cn, isConst := b.L.(*expr.Const); isConst && !cn.Val.Null {
			return cr.Index, b.Op.Flip(), cn.Val, true
		}
	}
	return 0, 0, types.Value{}, false
}

// ---------------------------------------------------------------------------
// 2. Join reordering
// ---------------------------------------------------------------------------

// reorderJoins walks the plan top-down and, at the top of each maximal
// inner/cross join tree with at least three relations, rebuilds the tree
// greedily by estimated cardinality. Left joins and non-join nodes bound
// the flattening (their subtrees are reordered independently).
func reorderJoins(n Node) Node {
	if j, ok := n.(*Join); ok && j.Type != LeftJoin {
		if nj := tryReorder(j); nj != nil {
			return nj
		}
	}
	mapChildren(n, reorderJoins)
	return n
}

// joinLeaf is one relation of a flattened join tree, with its column range
// [off, off+width) in the original (flattened) output schema.
type joinLeaf struct {
	node       Node
	off, width int
}

// joinCond is what the greedy order needs of one conjunct of the flattened
// join condition: the leaves it reads and whether it is an equi-join
// condition between two of them.
type joinCond struct {
	leaves map[int]bool
	equi   bool
}

// tryReorder flattens j and rebuilds it greedily; returns nil when the
// tree is too small to bother (fewer than three leaves).
func tryReorder(j *Join) Node {
	var leaves []joinLeaf
	var conj []expr.Expr
	flattenJoin(j, 0, &leaves, &conj)
	if len(leaves) < 3 {
		return nil
	}
	schema, quals := j.Schema(), j.Quals()
	// Reorder nested join trees hiding behind flattening boundaries.
	for i := range leaves {
		leaves[i].node = reorderJoins(leaves[i].node)
	}
	conds := make([]joinCond, len(conj))
	for i, c := range conj {
		conds[i] = analyzeCond(c, leaves)
	}
	return place(buildGreedyJoin(leaves, conds, schema, quals), conj)
}

// flattenJoin collects the leaves and the join conjuncts of a maximal
// inner/cross join tree. Conjuncts are rebased to the flattened schema
// (column offsets are global). Returns the subtree's column width.
func flattenJoin(n Node, off int, leaves *[]joinLeaf, conj *[]expr.Expr) int {
	j, ok := n.(*Join)
	if !ok || j.Type == LeftJoin {
		w := len(n.Schema())
		*leaves = append(*leaves, joinLeaf{node: n, off: off, width: w})
		return w
	}
	lw := flattenJoin(j.L, off, leaves, conj)
	rw := flattenJoin(j.R, off+lw, leaves, conj)
	*conj = append(*conj, splitConjuncts(shiftColRefs(j.On, off))...)
	return lw + rw
}

// analyzeCond computes the leaf set of a conjunct and whether it is an
// equi-join condition between two leaves.
func analyzeCond(c expr.Expr, leaves []joinLeaf) joinCond {
	refs := map[int]bool{}
	expr.ReferencedColumns(c, refs)
	jc := joinCond{leaves: map[int]bool{}}
	for col := range refs {
		for id, lf := range leaves {
			if col >= lf.off && col < lf.off+lf.width {
				jc.leaves[id] = true
				break
			}
		}
	}
	if b, ok := c.(*expr.BinOp); ok && b.Op == expr.OpEq && len(jc.leaves) == 2 {
		_, lIsCol := b.L.(*expr.ColRef)
		_, rIsCol := b.R.(*expr.ColRef)
		jc.equi = lIsCol && rIsCol
	}
	return jc
}

// buildGreedyJoin picks a left-deep order: start from the smallest leaf,
// repeatedly join the relation giving the smallest estimated intermediate,
// preferring equi-connected candidates so cross products are a last resort.
// It joins the leaves in that order with no condition, for the placement
// pass to give each join its conjuncts, and restores the original column
// order (schema, quals) with a Project when the order permuted it.
func buildGreedyJoin(leaves []joinLeaf, conds []joinCond, schema types.Schema, quals []string) Node {
	placed := make([]bool, len(leaves))
	start := 0
	for i := 1; i < len(leaves); i++ {
		if leaves[i].node.Card() < leaves[start].node.Card() {
			start = i
		}
	}
	// curCard is cur's estimate once placement has given it its conditions;
	// until then cur is a cross product.
	cur, curCard := leaves[start].node, leaves[start].node.Card()
	placed[start] = true
	order := []int{start}
	for len(order) < len(leaves) {
		next, nextEqui, nextCard := -1, false, 0.0
		for j := range leaves {
			if placed[j] {
				continue
			}
			equi, card := candidateCost(curCard, leaves[j].node.Card(), j, placed, conds)
			better := next < 0 ||
				(equi && !nextEqui) ||
				(equi == nextEqui && card < nextCard)
			if better {
				next, nextEqui, nextCard = j, equi, card
			}
		}
		cur, curCard = NewJoin(InnerJoin, cur, leaves[next].node, nil), nextCard
		placed[next] = true
		order = append(order, next)
	}
	if slices.IsSorted(order) {
		return cur
	}
	exprs := make([]expr.Expr, len(schema))
	names := make([]string, len(schema))
	at := 0
	for _, id := range order {
		lf := leaves[id]
		for c := lf.off; c < lf.off+lf.width; c++ {
			exprs[c] = &expr.ColRef{Table: quals[c], Name: schema[c].Name, Index: at, Typ: schema[c].Type}
			names[c] = schema[c].Name
			at++
		}
	}
	return &Project{Child: cur, Exprs: exprs, Names: names}
}

// candidateCost estimates the cardinality of joining the current
// intermediate with leaf j, mirroring Join.Card's shapes: the conjuncts
// that join j are those it completes.
func candidateCost(curCard, leafCard float64, j int, placed []bool, conds []joinCond) (equi bool, card float64) {
	connected := false
	for _, c := range conds {
		if !c.leaves[j] || !subsetPlaced(c.leaves, placed, j) {
			continue
		}
		connected = true
		if c.equi {
			equi = true
		}
	}
	switch {
	case equi:
		if curCard > leafCard {
			return true, curCard
		}
		return true, leafCard
	case connected:
		return false, curCard * leafCard * 0.1
	default:
		return false, curCard * leafCard
	}
}

// subsetPlaced reports whether every leaf in ls is placed, treating next
// as placed.
func subsetPlaced(ls map[int]bool, placed []bool, next int) bool {
	for id := range ls {
		if id != next && !placed[id] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// 4. Index-scan selection
// ---------------------------------------------------------------------------

// chooseIndexScan rewrites Filter(Scan) into IndexScan (plus residual
// Filter) when a secondary index matches a selective conjunct.
func chooseIndexScan(n Node, stats StatsProvider) Node {
	f, ok := n.(*Filter)
	if !ok {
		return n
	}
	scan, ok := f.Child.(*Scan)
	if !ok {
		return n
	}
	rel, ok := scan.Rel.(catalog.IndexedRelation)
	if !ok {
		return n
	}
	indexes := rel.Indexes()
	if len(indexes) == 0 {
		return n
	}
	rows := scan.Card()
	if rows <= 0 {
		return n
	}
	var ts *TableStats
	if stats != nil {
		ts, _ = stats.TableStats(scan.Rel.Name())
	}

	schema := scan.Schema()
	conjs := splitConjuncts(f.Pred)
	bounds := collectColumnBounds(conjs, schema)

	best := -1
	var bestScan *IndexScan
	var bestAbsorbed map[int]bool
	for i := range indexes {
		idx := &indexes[i]
		cb, ok := bounds[idx.Column]
		if !ok {
			continue
		}
		is, absorbed := buildIndexProbe(scan, idx, cb, rows, ts)
		if is == nil {
			continue
		}
		if is.EstRows/rows > indexScanMaxSelectivity {
			continue
		}
		if best < 0 || is.EstRows < bestScan.EstRows {
			best, bestScan, bestAbsorbed = i, is, absorbed
		}
	}
	if best < 0 {
		return n
	}
	var residual []expr.Expr
	for i, c := range conjs {
		if !bestAbsorbed[i] {
			residual = append(residual, c)
		}
	}
	if p := combineConjuncts(residual); p != nil {
		return &Filter{Child: bestScan, Pred: p}
	}
	return bestScan
}

// colBounds accumulates the constant comparisons against one column.
type colBounds struct {
	eq           *types.Value
	eqConj       int // conjunct index providing eq
	eqParam      int // $N providing an equality probe (0 = none)
	eqParamConj  int // conjunct index providing eqParam
	lo, hi       *types.Value
	loInc, hiInc bool
	rangeConjs   []int // conjunct indices absorbed into lo/hi
}

// colEqParam matches a conjunct of the form `col = $n` (either orientation),
// returning the column index and parameter ordinal.
func colEqParam(c expr.Expr) (col int, param int, ok bool) {
	b, isBin := c.(*expr.BinOp)
	if !isBin || b.Op != expr.OpEq {
		return 0, 0, false
	}
	if cr, isCol := b.L.(*expr.ColRef); isCol && cr.Index >= 0 {
		if p, isParam := b.R.(*expr.Param); isParam {
			return cr.Index, p.Idx, true
		}
	}
	if cr, isCol := b.R.(*expr.ColRef); isCol && cr.Index >= 0 {
		if p, isParam := b.L.(*expr.Param); isParam {
			return cr.Index, p.Idx, true
		}
	}
	return 0, 0, false
}

// collectColumnBounds groups col-op-const conjuncts by column name,
// intersecting range bounds (all range conjuncts on a column are implied
// by the intersection, so they can all be absorbed by a range probe).
func collectColumnBounds(conjs []expr.Expr, schema types.Schema) map[string]*colBounds {
	out := map[string]*colBounds{}
	for i, c := range conjs {
		col, op, val, ok := colOpConst(c)
		if !ok {
			// Parameter equality probes are value-independent: the index
			// choice and its NDV-based estimate hold for any binding.
			if pcol, param, pok := colEqParam(c); pok && pcol < len(schema) {
				cb := out[schema[pcol].Name]
				if cb == nil {
					cb = &colBounds{}
					out[schema[pcol].Name] = cb
				}
				if cb.eqParam == 0 {
					cb.eqParam, cb.eqParamConj = param, i
				}
			}
			continue
		}
		if col >= len(schema) {
			continue
		}
		name := schema[col].Name
		cb := out[name]
		if cb == nil {
			cb = &colBounds{}
			out[name] = cb
		}
		v := val
		switch op {
		case expr.OpEq:
			if cb.eq == nil {
				cb.eq, cb.eqConj = &v, i
			}
		case expr.OpGt, expr.OpGe:
			inc := op == expr.OpGe
			if tightenLow(cb.lo, cb.loInc, &v, inc) {
				cb.lo, cb.loInc = &v, inc
			}
			cb.rangeConjs = append(cb.rangeConjs, i)
		case expr.OpLt, expr.OpLe:
			inc := op == expr.OpLe
			if tightenHigh(cb.hi, cb.hiInc, &v, inc) {
				cb.hi, cb.hiInc = &v, inc
			}
			cb.rangeConjs = append(cb.rangeConjs, i)
		}
	}
	return out
}

// tightenLow reports whether (nv, ninc) is a tighter lower bound than
// (old, oinc).
func tightenLow(old *types.Value, oinc bool, nv *types.Value, ninc bool) bool {
	if old == nil {
		return true
	}
	switch nv.Compare(*old) {
	case 1:
		return true
	case 0:
		return oinc && !ninc // exclusive beats inclusive at the same point
	}
	return false
}

// tightenHigh reports whether (nv, ninc) is a tighter upper bound.
func tightenHigh(old *types.Value, oinc bool, nv *types.Value, ninc bool) bool {
	if old == nil {
		return true
	}
	switch nv.Compare(*old) {
	case -1:
		return true
	case 0:
		return oinc && !ninc
	}
	return false
}

// buildIndexProbe constructs the IndexScan for one candidate index, or nil
// when the bounds don't suit the index kind. Also returns the set of
// conjunct indices the probe absorbs.
func buildIndexProbe(scan *Scan, idx *catalog.IndexInfo, cb *colBounds, rows float64, ts *TableStats) (*IndexScan, map[int]bool) {
	base := &IndexScan{
		Rel:    scan.Rel.(catalog.IndexedRelation),
		Alias:  scan.Alias,
		Index:  idx.Name,
		Column: idx.Column,
		Kind:   idx.Kind,
	}
	if cb.eq != nil {
		// Point probe: either index kind serves it.
		base.Eq = cb.eq
		sel := 0.0
		if ts != nil {
			sel = ts.EqSelectivity(idx.Column)
		} else {
			// No stats: the index's distinct-key count is an NDV proxy.
			keys := idx.Keys
			if keys < 1 {
				keys = 1
			}
			sel = 1 / float64(keys)
		}
		base.EstRows = rows * clamp01(sel)
		return base, map[int]bool{cb.eqConj: true}
	}
	if cb.eqParam > 0 {
		// Point probe against a $N parameter: the key arrives with the
		// arguments, but equality selectivity does not depend on the value.
		base.EqParam = cb.eqParam
		sel := 0.0
		if ts != nil {
			sel = ts.EqSelectivity(idx.Column)
		} else {
			keys := idx.Keys
			if keys < 1 {
				keys = 1
			}
			sel = 1 / float64(keys)
		}
		base.EstRows = rows * clamp01(sel)
		return base, map[int]bool{cb.eqParamConj: true}
	}
	if cb.lo == nil && cb.hi == nil {
		return nil, nil
	}
	if idx.Kind != "ORDERED" {
		return nil, nil // hash indexes serve equality only
	}
	base.Lo, base.LoInc = cb.lo, cb.loInc
	base.Hi, base.HiInc = cb.hi, cb.hiInc
	sel := 0.3 // shape heuristic: too coarse to clear the gate without stats
	if ts != nil {
		sel = ts.RangeSelectivity(idx.Column, cb.lo, cb.hi)
	}
	base.EstRows = rows * clamp01(sel)
	absorbed := map[int]bool{}
	for _, i := range cb.rangeConjs {
		absorbed[i] = true
	}
	return base, absorbed
}
