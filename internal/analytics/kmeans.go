// Package analytics implements the algorithm kernels behind the paper's
// analytical physical operators (Section 6): k-Means (Lloyd's algorithm)
// with lambda-parameterized distance metrics, pull-based PageRank over a
// CSR index, and Gaussian Naive Bayes training and prediction.
//
// Kernels operate on flat row-major float64 matrices and are parallelized
// with thread-local partial state plus a final merge, mirroring the
// operator implementations described in the paper.
package analytics

import (
	"fmt"
	"sync"

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
	// once per worker, worker in [0, Workers), on the caller's goroutine,
	// and returns that worker's metric for the round; so a metric may keep
	// per-worker state. Unset, or a nil metric, is squared Euclidean
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
// Each worker assigns its chunk of tuples to the nearest center and
// accumulates per-cluster sums locally; synchronization happens only for
// the final merge and center update, exactly as the paper describes.
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
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n/1024+1 {
		workers = n/1024 + 1
	}

	cur := append([]float64{}, centers...)
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}

	res := &KMeansResult{}
	metrics := make([]Metric, workers)
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
		changed, err := assignStep(data, n, d, cur, k, metrics, assign, workers)
		if err != nil {
			return nil, err
		}
		updateStep(data, n, d, cur, k, assign, workers)
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

// assignStep assigns each tuple to its nearest center, worker w under
// metrics[w] (nil = squared Euclidean), returning how many assignments
// changed. One worker runs on the caller's goroutine.
func assignStep(data []float64, n, d int, centers []float64, k int,
	metrics []Metric, assign []int32, workers int) (int, error) {

	run := func(w, lo, hi int) (int, error) {
		if metrics[w] == nil {
			return assignEuclid(data, d, centers, k, assign, lo, hi), nil
		}
		return assignCustom(data, d, k, metrics[w], assign, lo, hi)
	}
	if workers == 1 {
		return run(0, 0, n)
	}
	chunk := (n + workers - 1) / workers
	changes := make([]int, workers)
	errs := make([]error, workers)
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
			changes[w], errs[w] = run(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for w, c := range changes {
		if errs[w] != nil {
			return 0, errs[w]
		}
		total += c
	}
	return total, nil
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

// assignCustom assigns tuples lo..hi-1 under a λ metric, one block of
// types.BatchSize rows at a time: the metric fills one distance column per
// center, and each row takes the center of its smallest distance, the first
// one on ties — as assignEuclid does.
func assignCustom(data []float64, d, k int, metric Metric, assign []int32, lo, hi int) (int, error) {
	dist := make([][]float64, k)
	for c := range dist {
		dist[c] = make([]float64, types.BatchSize)
	}
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

// updateStep recomputes centers as the arithmetic mean of their assigned
// tuples, using thread-local sums merged at the end. Empty clusters keep
// their previous center.
func updateStep(data []float64, n, d int, centers []float64, k int, assign []int32, workers int) {
	chunk := (n + workers - 1) / workers
	sums := make([][]float64, workers)
	counts := make([][]int64, workers)
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
			sum := make([]float64, k*d)
			cnt := make([]int64, k)
			for i := lo; i < hi; i++ {
				c := int(assign[i])
				cnt[c]++
				row := data[i*d : i*d+d]
				cs := sum[c*d : c*d+d]
				for j, v := range row {
					cs[j] += v
				}
			}
			sums[w], counts[w] = sum, cnt
		}(w, lo, hi)
	}
	wg.Wait()
	// Global merge — the only synchronized step.
	totalSum := make([]float64, k*d)
	totalCnt := make([]int64, k)
	for w := range sums {
		if sums[w] == nil {
			continue
		}
		for i, v := range sums[w] {
			totalSum[i] += v
		}
		for c, v := range counts[w] {
			totalCnt[c] += v
		}
	}
	for c := 0; c < k; c++ {
		if totalCnt[c] == 0 {
			continue // keep previous center for empty clusters
		}
		inv := 1 / float64(totalCnt[c])
		for j := 0; j < d; j++ {
			centers[c*d+j] = totalSum[c*d+j] * inv
		}
	}
}

// Assign returns the nearest-center index for each of n tuples under metric
// (nil = squared Euclidean), on the caller's goroutine. It is the "apply the
// model" half of the paper's model-application pattern.
func Assign(data []float64, n, d int, centers []float64, k int, metric Metric) ([]int32, error) {
	assign := make([]int32, n)
	if _, err := assignStep(data, n, d, centers, k, []Metric{metric}, assign, 1); err != nil {
		return nil, err
	}
	return assign, nil
}
