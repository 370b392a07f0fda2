package contender_test

import (
	"context"
	"math"
	"testing"

	"lambdadb/internal/analytics"
	"lambdadb/internal/contender"
	"lambdadb/internal/contender/dataflow"
	"lambdadb/internal/contender/singlecore"
	"lambdadb/internal/contender/udf"
	"lambdadb/internal/graph"
	"lambdadb/internal/workload"
)

// engines returns every comparator under test.
func engines() []contender.Engine {
	return []contender.Engine{
		singlecore.New(),
		dataflow.New(4),
		udf.New(4),
	}
}

// TestKMeansAgreesWithOperator cross-validates every comparator against the
// in-database kernel: identical protocol (Lloyd's, same init, fixed
// iterations) must give identical centers.
func TestKMeansAgreesWithOperator(t *testing.T) {
	const n, d, k, iters = 3000, 4, 3, 5
	data := workload.UniformVectors(n, d, 42)
	centers := workload.SampleCenters(data, n, d, k, 7)

	ref, err := analytics.KMeans(data, n, d, centers, k,
		analytics.KMeansOptions{MaxIter: iters, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		got := e.KMeans(data, n, d, centers, k, iters)
		for i := range ref.Centers {
			if math.Abs(got[i]-ref.Centers[i]) > 1e-9 {
				t.Errorf("%s: center[%d] = %v, want %v", e.Name(), i, got[i], ref.Centers[i])
				break
			}
		}
	}
}

func TestPageRankAgreesWithOperator(t *testing.T) {
	g := workload.SocialGraph(2000, 20000, 1)
	csr, err := graph.Build(g.Src, g.Dst)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 15
	ref, err := analytics.PageRank(csr, analytics.PageRankOptions{
		Damping: 0.85, Epsilon: 0, MaxIter: iters, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		got := e.PageRank(g.Src, g.Dst, 0.85, iters)
		if len(got) != len(ref.Ranks) {
			t.Fatalf("%s: %d ranks, want %d", e.Name(), len(got), len(ref.Ranks))
		}
		for v := range ref.Ranks {
			if math.Abs(got[v]-ref.Ranks[v]) > 1e-9 {
				t.Errorf("%s: rank[%d] = %v, want %v", e.Name(), v, got[v], ref.Ranks[v])
				break
			}
		}
	}
}

func TestNBTrainAgreesWithOperator(t *testing.T) {
	const n, d = 5000, 3
	data := workload.UniformVectors(n, d, 3)
	labels := workload.UniformLabels(n, 2, 4)
	ref, err := analytics.TrainNB(context.Background(), data, n, d, labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		got := e.NBTrain(data, n, d, labels)
		if len(got.Labels) != len(ref.Labels) {
			t.Fatalf("%s: labels %v, want %v", e.Name(), got.Labels, ref.Labels)
		}
		for c := range ref.Labels {
			if got.Labels[c] != ref.Labels[c] {
				t.Errorf("%s: label[%d] = %d, want %d", e.Name(), c, got.Labels[c], ref.Labels[c])
			}
			if math.Abs(got.Priors[c]-ref.Priors[c]) > 1e-12 {
				t.Errorf("%s: prior[%d] = %v, want %v", e.Name(), c, got.Priors[c], ref.Priors[c])
			}
			for j := 0; j < d; j++ {
				if math.Abs(got.Means[c][j]-ref.Means[c][j]) > 1e-9 {
					t.Errorf("%s: mean[%d][%d] = %v, want %v", e.Name(), c, j, got.Means[c][j], ref.Means[c][j])
				}
				if math.Abs(got.Stds[c][j]-ref.Stds[c][j]) > 1e-9 {
					t.Errorf("%s: std[%d][%d] = %v, want %v", e.Name(), c, j, got.Stds[c][j], ref.Stds[c][j])
				}
			}
		}
	}
}

func TestPageRankPreservesSparseIDsAcrossEngines(t *testing.T) {
	src := []int64{100, 200, 300}
	dst := []int64{200, 300, 100}
	var ranks [][]float64
	for _, e := range engines() {
		ranks = append(ranks, e.PageRank(src, dst, 0.85, 10))
	}
	for i := 1; i < len(ranks); i++ {
		for v := range ranks[0] {
			if math.Abs(ranks[i][v]-ranks[0][v]) > 1e-9 {
				t.Errorf("engine %d disagrees at %d", i, v)
			}
		}
	}
}
