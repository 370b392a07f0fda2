// Package analytics implements the algorithm kernels behind the paper's
// analytical physical operators (Section 6): k-Means (Lloyd's algorithm)
// with lambda-parameterized distance metrics, pull-based PageRank over a
// CSR index, and Gaussian Naive Bayes training and prediction.
//
// Kernels operate on flat row-major float64 matrices. They run on the
// engine's worker pool (morsel.For) over a fixed grid of morsels, keep one
// partial per morsel and merge the partials in morsel order, so no result
// depends on the worker count: the paper's thread-local partial state,
// keyed by morsel instead of by thread.
package analytics

import (
	"context"
	"fmt"

	"lambdadb/internal/morsel"
	"lambdadb/internal/types"
)

// A Metric is a distance prepared for one set of k centres and one worker.
// Given a block of at most types.BatchSize data rows (row-major, d floats
// each), it sets dist[c][i] to the distance between row i and centre c for
// every centre. It is called on its worker's goroutine only.
type Metric func(rows []float64, dist [][]float64) error

// KMeansResult reports the outcome of a k-Means run.
type KMeansResult struct {
	// Centers holds the final cluster centers, row-major k×d.
	Centers []float64
	// Iterations is the number of executed iterations.
	Iterations int
	// Converged reports whether no assignment changed in the last
	// iteration (as opposed to hitting MaxIter).
	Converged bool
}

// KMeansOptions configures a run.
type KMeansOptions struct {
	// MaxIter bounds the iteration count (paper: "an additional parameter
	// defines the maximum number of iterations").
	MaxIter int
	// Workers is the parallelism degree; 0 or 1 means serial.
	Workers int
	// Distance, when set, is given every round's centres (row-major k×d)
	// once per worker, worker in [0, morsel.Slots(Workers, morsel.Count(n))),
	// on
	// the caller's goroutine, and returns that worker's metric for the
	// round; so a metric may keep per-worker state. Unset, or a nil metric, is squared Euclidean
	// distance (the default lambda of the paper's Section 7).
	Distance func(worker int, centers []float64) (Metric, error)
	// OnIteration, if set, is called after every iteration with the 1-based
	// round number and how many assignments changed (telemetry and
	// cancellation hook); an error stops the run and is returned.
	OnIteration func(round int, changed float64) error
}

// KMeans runs Lloyd's algorithm (paper Section 6.1) on n tuples of d
// dimensions stored row-major in data, starting from the given centers
// (row-major k×d, consumed, not modified).
//
// Each round runs the kernel grid's morsels on the worker pool: a morsel
// assigns its tuples to the nearest center and sums them per cluster into
// its own partial; the partials are merged in morsel order for the center
// update, so the result is the same at any worker count.
func KMeans(data []float64, n, d int, centers []float64, k int, opt KMeansOptions) (*KMeansResult, error) {
	if d <= 0 || k <= 0 {
		return nil, fmt.Errorf("kmeans: need d > 0 and k > 0 (got d=%d k=%d)", d, k)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("kmeans: data length %d != n*d = %d", len(data), n*d)
	}
	if len(centers) != k*d {
		return nil, fmt.Errorf("kmeans: centers length %d != k*d = %d", len(centers), k*d)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	morsels := morsel.Count(n)
	workers := morsel.Slots(opt.Workers, morsels)

	cur := append([]float64{}, centers...)
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	// Per morsel: its assignment changes, and per cluster its tuple count
	// and coordinate sums. Per worker: its metric and distance buffers.
	changes := make([]int, morsels)
	counts := make([]int64, morsels*k)
	sums := make([]float64, morsels*k*d)
	metrics := make([]Metric, workers)
	dists := make([][][]float64, workers)

	res := &KMeansResult{}
	for iter := 0; iter < opt.MaxIter; iter++ {
		res.Iterations = iter + 1
		if opt.Distance != nil {
			for w := range metrics {
				m, err := opt.Distance(w, cur)
				if err != nil {
					return nil, err
				}
				metrics[w] = m
			}
		}
		err := morsel.For(context.TODO(), "kmeans", workers, morsels, func(w, m int) (err error) {
			lo, hi := morsel.Range(m, n)
			if metrics[w] == nil {
				changes[m] = assignEuclid(data, d, cur, k, assign, lo, hi)
			} else {
				if dists[w] == nil {
					dists[w] = distanceBuffers(k)
				}
				if changes[m], err = assignCustom(data, d, k, metrics[w], dists[w], assign, lo, hi); err != nil {
					return err
				}
			}
			cnt, sum := counts[m*k:(m+1)*k], sums[m*k*d:(m+1)*k*d]
			clear(cnt)
			clear(sum)
			for i := lo; i < hi; i++ {
				c := int(assign[i])
				cnt[c]++
				cs := sum[c*d : c*d+d]
				for j, v := range data[i*d : i*d+d] {
					cs[j] += v
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		changed := update(cur, k, d, changes, counts, sums)
		if opt.OnIteration != nil {
			if err := opt.OnIteration(iter+1, float64(changed)); err != nil {
				return nil, err
			}
		}
		if changed == 0 {
			res.Converged = true
			break
		}
	}
	res.Centers = cur
	return res, nil
}

// update merges the morsels' partials in morsel order and moves every center
// to the mean of its tuples; an empty cluster keeps its previous center. It
// returns how many assignments changed.
func update(centers []float64, k, d int, changes []int, counts []int64, sums []float64) int {
	changed := 0
	totalCnt := make([]int64, k)
	totalSum := make([]float64, k*d)
	for m, ch := range changes {
		changed += ch
		for c, v := range counts[m*k : (m+1)*k] {
			totalCnt[c] += v
		}
		for i, v := range sums[m*k*d : (m+1)*k*d] {
			totalSum[i] += v
		}
	}
	for c := 0; c < k; c++ {
		if totalCnt[c] == 0 {
			continue
		}
		inv := 1 / float64(totalCnt[c])
		for j := 0; j < d; j++ {
			centers[c*d+j] = totalSum[c*d+j] * inv
		}
	}
	return changed
}

// assignEuclid is the specialized default-metric inner loop.
func assignEuclid(data []float64, d int, centers []float64, k int, assign []int32, lo, hi int) int {
	changed := 0
	for i := lo; i < hi; i++ {
		row := data[i*d : i*d+d]
		best := int32(0)
		bestDist := euclidSq(row, centers[:d])
		for c := 1; c < k; c++ {
			dd := euclidSq(row, centers[c*d:c*d+d])
			if dd < bestDist {
				bestDist = dd
				best = int32(c)
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed++
		}
	}
	return changed
}

func euclidSq(a, b []float64) float64 {
	var s float64
	for j := range a {
		diff := a[j] - b[j]
		s += diff * diff
	}
	return s
}

// distanceBuffers is one distance column per center, a block of rows long:
// what a λ metric fills.
func distanceBuffers(k int) [][]float64 {
	dist := make([][]float64, k)
	for c := range dist {
		dist[c] = make([]float64, types.BatchSize)
	}
	return dist
}

// assignCustom assigns tuples lo..hi-1 under a λ metric, one block of
// types.BatchSize rows at a time: the metric fills one distance column per
// center in dist, and each row takes the center of its smallest distance,
// the first one on ties — as assignEuclid does.
func assignCustom(data []float64, d, k int, metric Metric, dist [][]float64, assign []int32, lo, hi int) (int, error) {
	changed := 0
	for blo := lo; blo < hi; blo += types.BatchSize {
		bhi := min(blo+types.BatchSize, hi)
		if err := metric(data[blo*d:bhi*d], dist); err != nil {
			return 0, err
		}
		for i := blo; i < bhi; i++ {
			best := int32(0)
			bestDist := dist[0][i-blo]
			for c := 1; c < k; c++ {
				if dd := dist[c][i-blo]; dd < bestDist {
					bestDist = dd
					best = int32(c)
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed++
			}
		}
	}
	return changed, nil
}

// Assign returns the nearest-center index for each of n tuples under metric
// (nil = squared Euclidean), on the caller's goroutine. It is the "apply the
// model" half of the paper's model-application pattern.
func Assign(data []float64, n, d int, centers []float64, k int, metric Metric) ([]int32, error) {
	assign := make([]int32, n)
	if metric == nil {
		assignEuclid(data, d, centers, k, assign, 0, n)
		return assign, nil
	}
	if _, err := assignCustom(data, d, k, metric, distanceBuffers(k), assign, 0, n); err != nil {
		return nil, err
	}
	return assign, nil
}
