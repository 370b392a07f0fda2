package plan

// Morsel splitting: a pipeline rooted at a base-table Scan (or at a
// WorkingScan over a bound working table) can be cloned into row-range
// restricted copies, one per morsel, which the executor runs on a worker
// pool. Filter/Project/Alias nodes are pure per-row transforms and commute
// with the split, and so does a Join along its streaming side: every morsel
// joins against the same blocking side, which the clones share unchanged.
// Everything else is a pipeline breaker.

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

// ClonePipeline copies a splittable pipeline (MorselLeaf(p) != nil) with the
// leaf scan restricted to [lo, hi). Expressions are shared; they are
// immutable after planning. A join's blocking side is shared too — the very
// node, which is how the executor knows the clones want one build.
func ClonePipeline(p Node, lo, hi int) Node {
	c := shallowCopy(p)
	switch n := c.(type) {
	case *Scan:
		n.Lo, n.Hi = lo, hi
	case *WorkingScan:
		n.Lo, n.Hi = lo, hi
	case *Join:
		if n.BlockingLeft() {
			n.R = ClonePipeline(n.R, lo, hi)
		} else {
			n.L = ClonePipeline(n.L, lo, hi)
		}
	default:
		mapChildren(c, func(ch Node) Node { return ClonePipeline(ch, lo, hi) })
	}
	return c
}

// SplitPipeline clones p into row-range morsels covering [0, rows). It
// returns nil when the input is too small to be worth splitting or when the
// clamp leaves a single part (callers then take the cheaper serial path).
func SplitPipeline(p Node, rows, parts, minRowsPerPart int) []Node {
	if parts <= 1 || rows < 2*minRowsPerPart {
		return nil
	}
	if parts > rows/minRowsPerPart {
		parts = rows / minRowsPerPart
	}
	if parts <= 1 {
		return nil
	}
	out := make([]Node, 0, parts)
	chunk := (rows + parts - 1) / parts
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		out = append(out, ClonePipeline(p, lo, hi))
	}
	return out
}
