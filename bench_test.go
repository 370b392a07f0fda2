// Package lambdadb_test holds the testing.B benchmarks, one per table and
// figure of the paper's evaluation (Section 8). Sizes are scaled to keep
// `go test -bench=.` under a few minutes; cmd/benchrunner runs the larger
// sweeps behind EXPERIMENTS.md and can be pushed to the paper's full sizes.
//
// Mapping (see DESIGN.md §5):
//
//	BenchmarkFig4Tuples/Dims/Clusters  — Figure 4 (k-Means sweeps)
//	BenchmarkFig5PageRank              — Figure 5 left
//	BenchmarkFig5NBTuples/NBDims       — Figure 5 middle/right
//	BenchmarkIterateVsCTE              — Section 5.1 claim (E8)
//	BenchmarkLambdaVariants            — Section 7 claim (E9)
//	BenchmarkKMeansParallel            — thread-local merge ablation
//	BenchmarkPageRankParallel/CSRBuild — Section 6.3 ablations
//	BenchmarkInstantLoad               — bulk CSV loading (Section 3)
//	BenchmarkSnapshotSaveLoad          — persistence round trips
//
// internal/exec has the engine-level ablations (vectorized vs
// row-at-a-time, parallel aggregation scaling, hash join).
package lambdadb_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lambdadb/internal/analytics"
	"lambdadb/internal/bench"
	"lambdadb/internal/engine"
	"lambdadb/internal/graph"
	"lambdadb/internal/load"
	"lambdadb/internal/persist"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
	"lambdadb/internal/workload"
)

// benchSystems are the systems measured inside testing.B loops.
var benchSystems = bench.AllSystems

func runKMeansBench(b *testing.B, cfg bench.KMeansConfig) {
	ds, err := bench.PrepareKMeans(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range benchSystems {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.Run(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Tuples is Figure 4 (left): k-Means runtime vs tuple count
// (d=10, k=5, 3 iterations). Tuple counts keep the paper's 1:5 ratio.
func BenchmarkFig4Tuples(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runKMeansBench(b, bench.KMeansConfig{N: n, D: 10, K: 5, Iters: 3, Seed: 1})
		})
	}
}

// BenchmarkFig4Dims is Figure 4 (middle): k-Means vs dimensions.
func BenchmarkFig4Dims(b *testing.B) {
	for _, d := range []int{3, 10, 50} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			runKMeansBench(b, bench.KMeansConfig{N: 50_000, D: d, K: 5, Iters: 3, Seed: 2})
		})
	}
}

// BenchmarkFig4Clusters is Figure 4 (right): k-Means vs cluster count.
func BenchmarkFig4Clusters(b *testing.B) {
	for _, k := range []int{3, 10, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runKMeansBench(b, bench.KMeansConfig{N: 50_000, D: 10, K: k, Iters: 3, Seed: 3})
		})
	}
}

// BenchmarkFig5PageRank is Figure 5 (left): PageRank on an LDBC-like
// graph, damping 0.85, fixed iterations (scaled from the paper's 45).
func BenchmarkFig5PageRank(b *testing.B) {
	ds, err := bench.PreparePageRank(bench.PageRankConfig{
		Vertices: 5_000, DirectedEdges: 100_000, Damping: 0.85, Iters: 10, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range benchSystems {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.Run(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func runNBBench(b *testing.B, cfg bench.NBConfig) {
	ds, err := bench.PrepareNB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range benchSystems {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ds.Run(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5NBTuples is Figure 5 (middle): Naive Bayes training vs n.
func BenchmarkFig5NBTuples(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runNBBench(b, bench.NBConfig{N: n, D: 10, Seed: 5})
		})
	}
}

// BenchmarkFig5NBDims is Figure 5 (right): Naive Bayes training vs d.
func BenchmarkFig5NBDims(b *testing.B) {
	for _, d := range []int{3, 10, 50} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			runNBBench(b, bench.NBConfig{N: 50_000, D: d, Seed: 6})
		})
	}
}

// BenchmarkIterateVsCTE isolates the Section 5.1 claim: a non-appending
// relation-update loop via ITERATE versus the appending recursive CTE.
func BenchmarkIterateVsCTE(b *testing.B) {
	const n, iters = 50_000, 10
	for i := 0; i < b.N; i++ {
		if _, err := bench.IterateVsCTE(n, iters, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLambdaVariants measures the Section 7 claim: parameterizing the
// k-Means operator with different lambdas keeps operator-level speed. One
// sub-benchmark per E9 variant, all over the same data.
func BenchmarkLambdaVariants(b *testing.B) {
	const n, d, k, iters = 50_000, 10, 5, 3
	ds, err := bench.PrepareKMeans(bench.KMeansConfig{N: n, D: d, K: k, Iters: iters, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range bench.LambdaVariantQueries(d, iters) {
		b.Run(v.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.DB.Query(v.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKMeansParallel ablates the operator's thread-local-merge design
// (Section 6.1) across worker counts.
func BenchmarkKMeansParallel(b *testing.B) {
	const n, d, k = 200_000, 10, 5
	data := workload.UniformVectors(n, d, 7)
	centers := workload.SampleCenters(data, n, d, k, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := analytics.KMeans(data, n, d, centers, k,
					analytics.KMeansOptions{MaxIter: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageRankParallel ablates the per-iteration parallel rank update
// (Section 6.3) across worker counts.
func BenchmarkPageRankParallel(b *testing.B) {
	g := workload.SocialGraph(20_000, 400_000, 9)
	csr, err := graph.Build(g.Src, g.Dst)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := analytics.PageRank(csr, analytics.PageRankOptions{
					Damping: 0.85, Epsilon: 0, MaxIter: 10, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCSRBuild measures the temporary graph-index construction the
// PageRank operator performs per query (Section 6.3): dense ids 0…19999,
// relabeled by direct address, and the same graph with every id multiplied
// by 1,000,003, relabeled through a map.
func BenchmarkCSRBuild(b *testing.B) {
	g := workload.SocialGraph(20_000, 400_000, 10)
	sparse := func(ids []int64) []int64 {
		out := make([]int64, len(ids))
		for i, id := range ids {
			out[i] = id * 1_000_003
		}
		return out
	}
	for _, c := range []struct {
		name     string
		src, dst []int64
	}{{"dense", g.Src, g.Dst}, {"sparse", sparse(g.Src), sparse(g.Dst)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(c.src, c.dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstantLoad measures the parallel CSV bulk loader (the paper's
// Section 3 cites fast loading as a key data-science property).
func BenchmarkInstantLoad(b *testing.B) {
	var sb strings.Builder
	const rows = 100_000
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%g,%g\n", i, float64(i)*0.5, float64(i)*0.25)
	}
	input := sb.String()
	schema := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "a", Type: types.Float64},
		{Name: "b2", Type: types.Float64},
	}
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := storage.NewStore()
		if _, err := store.CreateTable("t", schema); err != nil {
			b.Fatal(err)
		}
		n, err := load.CSV(store, "t", strings.NewReader(input), load.Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("loaded %d", n)
		}
	}
}

// BenchmarkSnapshotSaveLoad measures database image round trips.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	db := engine.Open()
	data := workload.UniformVectors(100_000, 4, 11)
	if err := workload.LoadVectorTable(db, "v", data, 100_000, 4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := persist.Save(db.Store(), &buf); err != nil {
			b.Fatal(err)
		}
		if _, err := persist.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
