package plan

// Morsel splitting: a pipeline rooted at a base-table Scan (or at a
// WorkingScan over a bound working table) can run as row-range morsels of
// its leaf, which the executor drives on a worker pool — every morsel runs
// the very same plan, only the range its leaf reads differs.
// Filter/Project/Alias nodes are pure per-row transforms and commute with
// the split, and so does a Join along its streaming side: every morsel
// joins against the same blocking side. Everything else is a pipeline
// breaker.

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

// SplitPipeline divides the rows [0, rows) of a splittable pipeline's leaf
// into at most parts morsels, each a row range [lo, hi). It returns nil
// when the input is too small to be worth splitting or when the clamp
// leaves a single part (callers then take the cheaper serial path).
func SplitPipeline(rows, parts, minRowsPerPart int) [][2]int {
	if parts <= 1 || rows < 2*minRowsPerPart {
		return nil
	}
	if parts > rows/minRowsPerPart {
		parts = rows / minRowsPerPart
	}
	if parts <= 1 {
		return nil
	}
	out := make([][2]int, 0, parts)
	chunk := (rows + parts - 1) / parts
	for lo := 0; lo < rows; lo += chunk {
		out = append(out, [2]int{lo, min(lo+chunk, rows)})
	}
	return out
}
