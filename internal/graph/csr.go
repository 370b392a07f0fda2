// Package graph provides the compressed sparse row (CSR) representation
// used by the PageRank physical operator (paper Section 6.3): vertices are
// re-labeled to dense internal ids for direct array indexing, and a reverse
// mapping restores the original ids after the computation.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// CSR is a directed graph in compressed sparse row form over dense vertex
// ids [0, N).
type CSR struct {
	// N is the number of vertices.
	N int
	// Offsets has N+1 entries; the out-neighbors of vertex v are
	// Targets[Offsets[v]:Offsets[v+1]].
	Offsets []int64
	// Targets holds the flattened adjacency lists.
	Targets []int32
	// Weights, when non-nil, holds one edge weight per Targets entry.
	Weights []float64
	// OrigIDs maps dense ids back to the original vertex ids (the paper's
	// reverse mapping operator).
	OrigIDs []int64
}

// EdgeWeights returns the weights of v's out-edges (nil when unweighted).
func (g *CSR) EdgeWeights(v int) []float64 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// OutDegree returns the out-degree of dense vertex v.
func (g *CSR) OutDegree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the out-neighbors of dense vertex v (shared storage).
func (g *CSR) Neighbors(v int) []int32 {
	return g.Targets[g.Offsets[v]:g.Offsets[v+1]]
}

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int { return len(g.Targets) }

// Build constructs a CSR from an edge list, re-labeling arbitrary int64
// vertex ids to dense ids. Vertices appearing only as targets are included.
// Original ids are assigned dense ids in sorted order so results are
// deterministic.
func Build(src, dst []int64) (*CSR, error) {
	return BuildWeighted(src, dst, nil)
}

// denseFloor is the id span BuildWeighted relabels by direct address
// whatever the number of edges (32 KB of marks); above it the span may be at
// most twice the number of edges.
const denseFloor = 1 << 13

// BuildWeighted is Build with optional per-edge weights (nil = unweighted);
// weights stay aligned with their edges through the relabeling.
//
// Ids spanning at most max(denseFloor, 2 × edges) values are relabeled by
// direct address: an array indexed by id − lo marks the ids present, and one
// ascending sweep numbers them. Sparser ids go through one map and one sort.
// Either way every endpoint is resolved once, and the counting and fill
// passes read the resolved ids.
func BuildWeighted(src, dst []int64, weights []float64) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: %d sources but %d destinations", len(src), len(dst))
	}
	if weights != nil && len(weights) != len(src) {
		return nil, fmt.Errorf("graph: %d weights for %d edges", len(weights), len(src))
	}
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: too many edges (%d)", len(src))
	}
	lo, span := idSpan(src, dst)
	var r relabeled
	if dense(span, len(src)) {
		r = relabelDense(src, dst, lo, span)
	} else {
		r = relabelSparse(src, dst)
	}
	return r.build(weights), nil
}

// idSpan returns the lowest id over src and dst and the highest minus it,
// computed in uint64 so that no pair of int64 ids overflows. An empty edge
// list spans nothing.
func idSpan(src, dst []int64) (lo int64, span uint64) {
	if len(src) == 0 {
		return 0, 0
	}
	dst = dst[:len(src)]
	lo, hi := src[0], src[0]
	for i, s := range src {
		lo, hi = min(lo, s, dst[i]), max(hi, s, dst[i])
	}
	return lo, uint64(hi) - uint64(lo)
}

// dense reports whether ids spanning span+1 values over edges edges are
// relabeled by direct address.
func dense(span uint64, edges int) bool {
	return span < uint64(max(denseFloor, 2*edges))
}

// relabeled is an edge list over dense ids: edge i runs from sid[i] to
// did[i], and dense id v stands for orig[v], ascending.
type relabeled struct {
	sid, did []int32
	orig     []int64
}

// relabelDense numbers the ids of src and dst, which lie in
// [lo, lo + span], through an array indexed by id − lo.
func relabelDense(src, dst []int64, lo int64, span uint64) relabeled {
	at := make([]int32, span+1) // 1 where an id is present, then its dense id
	for i, s := range src {
		at[uint64(s)-uint64(lo)] = 1
		at[uint64(dst[i])-uint64(lo)] = 1
	}
	n := 0
	for _, m := range at {
		n += int(m)
	}
	r := relabeled{sid: make([]int32, len(src)), did: make([]int32, len(src)), orig: make([]int64, 0, n)}
	for k, m := range at {
		if m != 0 {
			at[k] = int32(len(r.orig))
			r.orig = append(r.orig, lo+int64(k))
		}
	}
	for i, s := range src {
		r.sid[i] = at[uint64(s)-uint64(lo)]
		r.did[i] = at[uint64(dst[i])-uint64(lo)]
	}
	return r
}

// relabelSparse numbers the ids of src and dst through one map: each id
// gets a provisional id on first sight, the distinct ids are sorted once,
// and the provisional ids are then renumbered in sorted order.
func relabelSparse(src, dst []int64) relabeled {
	first := map[int64]int32{}
	r := relabeled{sid: make([]int32, len(src)), did: make([]int32, len(src))}
	resolve := func(id int64) int32 {
		k, ok := first[id]
		if !ok {
			k = int32(len(r.orig))
			first[id] = k
			r.orig = append(r.orig, id)
		}
		return k
	}
	for i, s := range src {
		r.sid[i], r.did[i] = resolve(s), resolve(dst[i])
	}
	slices.Sort(r.orig)
	renumber := make([]int32, len(r.orig)) // provisional id → dense id
	for v, id := range r.orig {
		renumber[first[id]] = int32(v)
	}
	for i := range r.sid {
		r.sid[i], r.did[i] = renumber[r.sid[i]], renumber[r.did[i]]
	}
	return r
}

// build lays the relabeled edges out as a CSR: a counting pass over the
// sources, then a fill pass that keeps each source's edges in input order.
func (r relabeled) build(weights []float64) *CSR {
	n := len(r.orig)
	offsets := make([]int64, n+1)
	for _, s := range r.sid {
		offsets[s+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]int32, len(r.sid))
	var outW []float64
	if weights != nil {
		outW = make([]float64, len(r.sid))
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i, s := range r.sid {
		c := cursor[s]
		targets[c] = r.did[i]
		if weights != nil {
			outW[c] = weights[i]
		}
		cursor[s] = c + 1
	}
	return &CSR{N: n, Offsets: offsets, Targets: targets, Weights: outW, OrigIDs: r.orig}
}

// Transpose returns the reverse graph (in-edges become out-edges); the
// pull-based PageRank kernel iterates over incoming edges. Edge weights
// travel with their edges.
func (g *CSR) Transpose() *CSR {
	offsets := make([]int64, g.N+1)
	for _, t := range g.Targets {
		offsets[t+1]++
	}
	for i := 0; i < g.N; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]int32, len(g.Targets))
	var outW []float64
	if g.Weights != nil {
		outW = make([]float64, len(g.Targets))
	}
	cursor := make([]int64, g.N)
	copy(cursor, offsets[:g.N])
	for v := 0; v < g.N; v++ {
		ws := g.EdgeWeights(v)
		for i, t := range g.Neighbors(v) {
			targets[cursor[t]] = int32(v)
			if outW != nil {
				outW[cursor[t]] = ws[i]
			}
			cursor[t]++
		}
	}
	return &CSR{N: g.N, Offsets: offsets, Targets: targets, Weights: outW, OrigIDs: g.OrigIDs}
}
