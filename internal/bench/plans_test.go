package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdadb/internal/engine"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizer")

// TestPaperPlans: the EXPLAIN of each of the paper's queries — k-Means,
// PageRank and Naive Bayes at every layer — is the one in
// testdata/plans.golden. The data has the sizes of lambdabench's
// paper_layers workload (Naive Bayes those of its k-Means), so the
// estimates are the benchmark's. An optimizer change shows up here as a
// diff; once it is the intended one, rewrite the file with
//
//	go test ./internal/bench -run TestPaperPlans -update
func TestPaperPlans(t *testing.T) {
	const damping = 0.85
	km, err := PrepareKMeans(KMeansConfig{N: 10_000, D: 10, K: 5, Iters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PreparePageRank(PageRankConfig{Vertices: 3_000, DirectedEdges: 100_000, Damping: damping, Iters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := PrepareNB(NBConfig{N: 10_000, D: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { km.DB.Close(); pr.DB.Close(); nb.DB.Close() })
	kc, pc, nc := km.Cfg, pr.Cfg, nb.Cfg
	var sb strings.Builder
	for _, q := range []struct {
		name string
		db   *engine.DB
		sql  string
	}{
		{"kmeans operator", km.DB, KMeansOperatorQuery(kc.D, kc.Iters)},
		{"kmeans lambda operator", km.DB, KMeansOperatorLambdaQuery(kc.D, kc.Iters)},
		{"kmeans iterate", km.DB, KMeansIterateQuery(kc.D, kc.Iters)},
		{"kmeans cte", km.DB, KMeansRecursiveCTEQuery(kc.D, kc.Iters)},
		{"pagerank operator", pr.DB, PageRankOperatorQuery(damping, 0, pc.Iters)},
		{"pagerank iterate", pr.DB, PageRankIterateQuery(damping, pc.Iters)},
		{"pagerank cte", pr.DB, PageRankRecursiveCTEQuery(damping, pc.Iters)},
		{"naive bayes operator", nb.DB, NBTrainOperatorQuery(nc.D)},
		{"naive bayes sql", nb.DB, NBTrainSQLQuery(nc.D, nc.N)},
	} {
		res, err := q.db.Exec("EXPLAIN " + q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		sb.WriteString("== " + q.name + "\n")
		for _, row := range res.Rows {
			sb.WriteString(row[0].S + "\n")
		}
	}
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("plans differ from %s; if the change is intended, run with -update\ngot:\n%s", path, got)
	}
}
