package analytics

import (
	"fmt"
	"sync"

	"lambdadb/internal/graph"
)

// PageRankOptions configures a PageRank run (paper Sections 6.3 and 8.1.3).
type PageRankOptions struct {
	// Damping is the probability the random surfer follows an edge
	// (paper default 0.85).
	Damping float64
	// Epsilon stops the iteration when the L1 rank change drops to or
	// below it; 0 disables the check (the paper's evaluation setting).
	Epsilon float64
	// MaxIter bounds the iteration count.
	MaxIter int
	// Workers is the parallelism degree; 0 or 1 means serial.
	Workers int
	// OnIteration, if set, is called after every iteration with the 1-based
	// round number and the L1 rank change (telemetry and cancellation
	// hook); an error stops the run and is returned.
	OnIteration func(round int, delta float64) error
}

// PageRankResult reports ranks by dense vertex id plus run metadata.
type PageRankResult struct {
	Ranks      []float64
	Iterations int
	Converged  bool
}

// PageRank computes vertex ranks over a CSR graph using pull-based
// iterations: each worker computes new ranks for a disjoint vertex range
// reading only the previous iteration's array, so no per-edge
// synchronization is needed (paper Section 6.3). Current and previous
// ranks live in two directly indexed arrays.
func PageRank(g *graph.CSR, opt PageRankOptions) (*PageRankResult, error) {
	if g.N == 0 {
		return &PageRankResult{Converged: true}, nil
	}
	if opt.Damping < 0 || opt.Damping >= 1 {
		return nil, fmt.Errorf("pagerank: damping must be in [0, 1), got %g", opt.Damping)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > g.N/1024+1 {
		workers = g.N/1024 + 1
	}

	// The kernel pulls over incoming edges; build the transpose once.
	in := g.Transpose()
	n := g.N
	invN := 1.0 / float64(n)

	// contrib[u] caches rank[u]/outdeg[u] so each neighbor access is a
	// single array read.
	// For weighted graphs (the paper's edge-weight lambda), a vertex's
	// outgoing mass is split proportionally to edge weights, so the
	// divisor is the total out-weight rather than the out-degree.
	weighted := g.Weights != nil
	outDeg := make([]float64, n)
	var danglingIdx []int32
	for v := 0; v < n; v++ {
		if weighted {
			var total float64
			for _, w := range g.EdgeWeights(v) {
				total += w
			}
			outDeg[v] = total
		} else {
			outDeg[v] = float64(g.OutDegree(v))
		}
		if outDeg[v] == 0 {
			danglingIdx = append(danglingIdx, int32(v))
		}
	}

	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	for v := range rank {
		rank[v] = invN
	}

	chunk := (n + workers - 1) / workers
	diffs := make([]float64, workers)
	res := &PageRankResult{}

	for iter := 0; iter < opt.MaxIter; iter++ {
		res.Iterations = iter + 1

		// Dangling vertices spread their rank uniformly.
		var danglingSum float64
		for _, v := range danglingIdx {
			danglingSum += rank[v]
		}
		base := (1-opt.Damping)*invN + opt.Damping*danglingSum*invN

		for v := 0; v < n; v++ {
			if outDeg[v] > 0 {
				contrib[v] = rank[v] / outDeg[v]
			} else {
				contrib[v] = 0
			}
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				var diff float64
				for v := lo; v < hi; v++ {
					var sum float64
					if weighted {
						ws := in.EdgeWeights(v)
						for i, u := range in.Neighbors(v) {
							sum += contrib[u] * ws[i]
						}
					} else {
						for _, u := range in.Neighbors(v) {
							sum += contrib[u]
						}
					}
					nv := base + opt.Damping*sum
					next[v] = nv
					d := nv - rank[v]
					if d < 0 {
						d = -d
					}
					diff += d
				}
				diffs[w] = diff
			}(w, lo, hi)
		}
		wg.Wait()

		rank, next = next, rank
		var total float64
		for _, d := range diffs {
			total += d
		}
		if opt.OnIteration != nil {
			if err := opt.OnIteration(iter+1, total); err != nil {
				return nil, err
			}
		}
		if opt.Epsilon > 0 && total <= opt.Epsilon {
			res.Converged = true
			break
		}
	}
	res.Ranks = rank
	return res, nil
}
