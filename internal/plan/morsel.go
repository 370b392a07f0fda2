package plan

// Morsel splitting: a pipeline rooted at a base-table Scan (or at a
// WorkingScan over a bound working table) can run as row-range morsels of
// its leaf, cut by morsel.SplitPipeline and driven on the worker pool
// (morsel.For) — every morsel runs the very same plan, only the range its
// leaf reads differs. Filter/Project/Alias nodes are pure per-row transforms
// and commute with the split, and so does a Join along its streaming side:
// every morsel joins against the same blocking side. Everything else is a
// pipeline breaker. This file answers the plan-shape questions only.

// MorselLeaf returns the splittable leaf (a *Scan or *WorkingScan) at the
// root of a Filter/Project/Alias/Join pipeline, or nil when the pipeline is
// not splittable.
func MorselLeaf(p Node) Node {
	switch n := p.(type) {
	case *Scan, *WorkingScan:
		return p
	case *Filter, *Project, *Alias:
		return MorselLeaf(p.Children()[0])
	case *Join:
		_, streaming := n.Sides()
		return MorselLeaf(streaming)
	}
	return nil
}

// StreamsPastJoin reports whether the pipeline rooted at p has a join among
// its stages.
func StreamsPastJoin(p Node) bool {
	switch p.(type) {
	case *Filter, *Project, *Alias:
		return StreamsPastJoin(p.Children()[0])
	case *Join:
		return true
	}
	return false
}
