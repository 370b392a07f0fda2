package analytics

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lambdadb/internal/morsel"
)

// NBModel is a trained Gaussian Naive Bayes model (paper Section 6.2):
// per class a prior probability, and per class and feature a mean and
// standard deviation.
type NBModel struct {
	// Labels holds the distinct class labels in ascending order.
	Labels []int64
	// Priors[c] is the Laplace-smoothed a-priori probability of class c:
	// (|c| + 1) / (|D| + |C|), as defined in the paper.
	Priors []float64
	// Means[c][f] and Stds[c][f] are the Gaussian parameters of feature f
	// in class c.
	Means [][]float64
	Stds  [][]float64
}

// minVariance floors variances so degenerate (constant) features do not
// produce infinite densities.
const minVariance = 1e-9

// nbPartial is one morsel's training state: per class the tuple count and
// per-feature sum and sum of squares — exactly the running aggregates the
// paper's training operator keeps in its per-thread hash tables.
type nbPartial struct {
	count map[int64]int64
	sum   map[int64][]float64
	sumSq map[int64][]float64
}

func newNBPartial() *nbPartial {
	return &nbPartial{
		count: map[int64]int64{},
		sum:   map[int64][]float64{},
		sumSq: map[int64][]float64{},
	}
}

func (p *nbPartial) update(row []float64, label int64, d int) {
	s, ok := p.sum[label]
	if !ok {
		s = make([]float64, d)
		p.sum[label] = s
		p.sumSq[label] = make([]float64, d)
	}
	sq := p.sumSq[label]
	p.count[label]++
	for j := 0; j < d; j++ {
		v := row[j]
		s[j] += v
		sq[j] += v * v
	}
}

func (p *nbPartial) merge(o *nbPartial, d int) {
	for label, cnt := range o.count {
		p.count[label] += cnt
		s, ok := p.sum[label]
		if !ok {
			p.sum[label] = o.sum[label]
			p.sumSq[label] = o.sumSq[label]
			continue
		}
		sq := p.sumSq[label]
		for j := 0; j < d; j++ {
			s[j] += o.sum[label][j]
			sq[j] += o.sumSq[label][j]
		}
	}
}

// TrainNB trains a Gaussian Naive Bayes classifier on n tuples of d
// features (row-major) with integer class labels. Each morsel of the kernel
// grid keeps its own running aggregates, merged in morsel order, so the model
// is the same at any worker count; ctx is checked before every morsel. The
// input tuples themselves are consumed and discarded (paper: the operator is
// a pipeline breaker that does not store tuples).
func TrainNB(ctx context.Context, data []float64, n, d int, labels []int64, workers int) (*NBModel, error) {
	if len(data) != n*d {
		return nil, fmt.Errorf("naive bayes: data length %d != n*d = %d", len(data), n*d)
	}
	if len(labels) != n {
		return nil, fmt.Errorf("naive bayes: %d labels for %d tuples", len(labels), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("naive bayes: empty training set")
	}

	partials := make([]*nbPartial, morsel.Count(n))
	err := morsel.For(ctx, "naive_bayes_train", workers, len(partials), func(_, m int) error {
		p := newNBPartial()
		lo, hi := morsel.Range(m, n)
		for i := lo; i < hi; i++ {
			p.update(data[i*d:i*d+d], labels[i], d)
		}
		partials[m] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := partials[0]
	for _, p := range partials[1:] {
		total.merge(p, d)
	}

	classes := make([]int64, 0, len(total.count))
	for label := range total.count {
		classes = append(classes, label)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	m := &NBModel{Labels: classes}
	numClasses := float64(len(classes))
	for _, label := range classes {
		cnt := float64(total.count[label])
		m.Priors = append(m.Priors, (cnt+1)/(float64(n)+numClasses))
		means := make([]float64, d)
		stds := make([]float64, d)
		for j := 0; j < d; j++ {
			mean := total.sum[label][j] / cnt
			variance := total.sumSq[label][j]/cnt - mean*mean
			if variance < minVariance {
				variance = minVariance
			}
			means[j] = mean
			stds[j] = math.Sqrt(variance)
		}
		m.Means = append(m.Means, means)
		m.Stds = append(m.Stds, stds)
	}
	return m, nil
}

// logGaussian returns the log density of x under N(mean, std²).
func logGaussian(x, mean, std float64) float64 {
	z := (x - mean) / std
	return -0.5*z*z - math.Log(std) - 0.5*math.Log(2*math.Pi)
}

// Predict classifies one feature row by maximum posterior in log space.
func (m *NBModel) Predict(row []float64) int64 {
	bestLabel := m.Labels[0]
	bestScore := math.Inf(-1)
	for c := range m.Labels {
		score := math.Log(m.Priors[c])
		means, stds := m.Means[c], m.Stds[c]
		for j, x := range row {
			score += logGaussian(x, means[j], stds[j])
		}
		if score > bestScore {
			bestScore = score
			bestLabel = m.Labels[c]
		}
	}
	return bestLabel
}
