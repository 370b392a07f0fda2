package bench

import (
	"math"
	"sort"
	"strings"
	"testing"

	"lambdadb/internal/analytics"
	"lambdadb/internal/engine"
	"lambdadb/internal/workload"
)

// queryKMeansCenters runs a k-Means SQL variant and returns centers sorted
// by coordinates (cluster ids are not comparable across variants).
func queryKMeansCenters(t *testing.T, ds *KMeansDataset, q string) [][]float64 {
	t.Helper()
	r, err := ds.DB.Query(q)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q)
	}
	var out [][]float64
	for _, row := range r.Rows {
		coords := make([]float64, 0, ds.Cfg.D)
		for _, v := range row[1:] {
			coords = append(coords, v.AsFloat())
		}
		out = append(out, coords)
	}
	sort.Slice(out, func(i, j int) bool {
		for x := range out[i] {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

func centersClose(a, b [][]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// TestKMeansVariantsAgree is the harness's core correctness check: all
// three in-database variants (operator, iterate, recursive CTE) must
// produce the same centers after the same number of Lloyd iterations.
func TestKMeansVariantsAgree(t *testing.T) {
	ds, err := PrepareKMeans(KMeansConfig{N: 2000, D: 3, K: 4, Iters: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	op := queryKMeansCenters(t, ds, KMeansOperatorQuery(ds.Cfg.D, ds.Cfg.Iters))
	it := queryKMeansCenters(t, ds, KMeansIterateQuery(ds.Cfg.D, ds.Cfg.Iters))
	cte := queryKMeansCenters(t, ds, KMeansRecursiveCTEQuery(ds.Cfg.D, ds.Cfg.Iters))
	if len(op) != ds.Cfg.K {
		t.Fatalf("operator returned %d centers", len(op))
	}
	if !centersClose(op, it, 1e-9) {
		t.Errorf("operator vs iterate centers differ:\n%v\n%v", op, it)
	}
	if !centersClose(op, cte, 1e-9) {
		t.Errorf("operator vs recursive-CTE centers differ:\n%v\n%v", op, cte)
	}
}

// queryRanks runs a PageRank variant and returns vertex→rank.
func queryRanks(t *testing.T, ds *PageRankDataset, q string) map[int64]float64 {
	t.Helper()
	r, err := ds.DB.Query(q)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q)
	}
	out := map[int64]float64{}
	for _, row := range r.Rows {
		out[row[0].AsInt()] = row[1].AsFloat()
	}
	return out
}

func TestPageRankVariantsAgree(t *testing.T) {
	ds, err := PreparePageRank(PageRankConfig{Vertices: 300, DirectedEdges: 3000, Iters: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	op := queryRanks(t, ds, PageRankOperatorQuery(0.85, 0, 10))
	it := queryRanks(t, ds, PageRankIterateQuery(0.85, 10))
	cte := queryRanks(t, ds, PageRankRecursiveCTEQuery(0.85, 10))
	if len(op) == 0 {
		t.Fatal("operator returned no ranks")
	}
	if len(it) != len(op) || len(cte) != len(op) {
		t.Fatalf("rank counts: op=%d it=%d cte=%d", len(op), len(it), len(cte))
	}
	for v, want := range op {
		if math.Abs(it[v]-want) > 1e-9 {
			t.Errorf("iterate rank[%d] = %v, want %v", v, it[v], want)
			break
		}
		if math.Abs(cte[v]-want) > 1e-9 {
			t.Errorf("CTE rank[%d] = %v, want %v", v, cte[v], want)
			break
		}
	}
}

func TestNBVariantsProduceModel(t *testing.T) {
	ds, err := PrepareNB(NBConfig{N: 2000, D: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	op, err := ds.DB.Query(NBTrainOperatorQuery(ds.Cfg.D))
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Rows) != 2*ds.Cfg.D { // classes × features
		t.Fatalf("operator model rows = %d", len(op.Rows))
	}
	sqlRes, err := ds.DB.Query(NBTrainSQLQuery(ds.Cfg.D, ds.Cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlRes.Rows) != 2 { // one row per class
		t.Fatalf("sql model rows = %d", len(sqlRes.Rows))
	}
	// Cross-check priors and means between the two formulations.
	for _, sqlRow := range sqlRes.Rows {
		label := sqlRow[0].AsInt()
		prior := sqlRow[1].AsFloat()
		mean0 := sqlRow[2].AsFloat()
		found := false
		for _, opRow := range op.Rows {
			if opRow[0].AsInt() == label && opRow[1].AsInt() == 0 {
				found = true
				if math.Abs(opRow[2].AsFloat()-prior) > 1e-9 {
					t.Errorf("label %d prior: op %v vs sql %v", label, opRow[2].AsFloat(), prior)
				}
				if math.Abs(opRow[3].AsFloat()-mean0) > 1e-9 {
					t.Errorf("label %d mean0: op %v vs sql %v", label, opRow[3].AsFloat(), mean0)
				}
			}
		}
		if !found {
			t.Errorf("label %d missing from operator model", label)
		}
	}
}

func TestRunAllSystemsSmoke(t *testing.T) {
	km, err := PrepareKMeans(KMeansConfig{N: 1000, D: 2, K: 2, Iters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range AllSystems {
		if _, _, err := km.Run(sys); err != nil {
			t.Errorf("kmeans %s: %v", sys, err)
		}
	}
	pr, err := PreparePageRank(PageRankConfig{Vertices: 100, DirectedEdges: 600, Iters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range AllSystems {
		if _, _, err := pr.Run(sys); err != nil {
			t.Errorf("pagerank %s: %v", sys, err)
		}
	}
	nb, err := PrepareNB(NBConfig{N: 1000, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range AllSystems {
		if _, _, err := nb.Run(sys); err != nil {
			t.Errorf("nb %s: %v", sys, err)
		}
	}
}

// TestWorkingTablesAreEstimatedByTheirInit: a working table used to be
// estimated at 0 rows, so every join in a loop body built its hash table on
// whatever read it — the k-Means step built the two-key join of dists with
// mind on dists, k times the larger side. With the init plan's estimate
// carried over, nothing under the step is estimated at 0 rows and that join
// builds on mind (its right child, so build=right) and streams dists past
// it.
func TestWorkingTablesAreEstimatedByTheirInit(t *testing.T) {
	ds, err := PrepareKMeans(KMeansConfig{N: 600, D: 3, K: 4, Iters: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.DB.Exec("EXPLAIN ANALYZE " + KMeansIterateQuery(ds.Cfg.D, ds.Cfg.Iters))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range res.Rows {
		lines = append(lines, row[0].S)
	}
	join := -1
	for i, line := range lines {
		if strings.Contains(line, " est=0 ") {
			t.Errorf("estimated at 0 rows: %s", strings.TrimSpace(line))
		}
		if strings.Contains(line, "InnerJoin on ((dd.id = m.id)") {
			join = i
		}
	}
	if join < 0 || join+2 >= len(lines) {
		t.Fatalf("no join of dists with mind in the plan:\n%s", strings.Join(lines, "\n"))
	}
	indent := func(line string) int { return len(line) - len(strings.TrimLeft(line, " ")) }
	var children []int
	for i := join + 1; i < len(lines) && indent(lines[i]) > indent(lines[join]); i++ {
		if indent(lines[i]) == indent(lines[join])+2 {
			children = append(children, i)
		}
	}
	if len(children) != 2 || !strings.Contains(lines[children[1]+1], "Project id, min(dist)") {
		t.Fatalf("the join's right child is not mind (Project id, min(dist)):\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[join], " build=right") {
		t.Errorf("the join builds on its left child, want mind: %s", strings.TrimSpace(lines[join]))
	}
}

// plainGo is a k-Means metric factory from a distance between one row and
// one centre.
func plainGo(dist func(a, b []float64) float64) func(worker int, centers []float64) (analytics.Metric, error) {
	return func(_ int, centers []float64) (analytics.Metric, error) {
		return func(rows []float64, out [][]float64) error {
			d := len(centers) / len(out)
			for c := range out {
				for i := 0; i < len(rows)/d; i++ {
					out[c][i] = dist(rows[i*d:i*d+d], centers[c*d:c*d+d])
				}
			}
			return nil
		}, nil
	}
}

// TestLambdaVariantsMatchPlainGo: each of E9's distance λs, compiled by the
// SQL expression compiler and run by the k-Means operator, yields centres
// bit-identical to the kernel run with the same metric written in plain Go
// in the λ's evaluation order — left to right, x ^ 2 as math.Pow — at one
// worker and at eight.
func TestLambdaVariantsMatchPlainGo(t *testing.T) {
	const n, d, k, iters = 20_000, 10, 5, 3
	data := workload.UniformVectors(n, d, 8)
	centers := workload.SampleCenters(data, n, d, k, 9)
	sq := func(x float64) float64 { return math.Pow(x, 2) }
	ref := map[string]func(a, b []float64) float64{
		"lambda-L2": func(a, b []float64) float64 {
			s := sq(a[0] - b[0])
			for j := 1; j < d; j++ {
				s += sq(a[j] - b[j])
			}
			return s
		},
		"lambda-L1": func(a, b []float64) float64 {
			s := math.Abs(a[0] - b[0])
			for j := 1; j < d; j++ {
				s += math.Abs(a[j] - b[j])
			}
			return s
		},
		"lambda-weighted": func(a, b []float64) float64 {
			s := 1 * sq(a[0]-b[0])
			for j := 1; j < d; j++ {
				s += float64(float64(j+1) * sq(a[j]-b[j])) // no fused multiply-add
			}
			return s
		},
	}
	for _, workers := range []int{1, 8} {
		db := engine.Open(engine.WithWorkers(workers))
		if err := loadPointsTable(db, "points", data, n, d, true); err != nil {
			t.Fatal(err)
		}
		if err := loadCentersTable(db, "centers", centers, k, d); err != nil {
			t.Fatal(err)
		}
		for _, v := range LambdaVariantQueries(d, iters)[1:] {
			want, err := analytics.KMeans(data, n, d, centers, k,
				analytics.KMeansOptions{MaxIter: iters, Workers: workers, Distance: plainGo(ref[v.Name])})
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Query(v.Query + " ORDER BY cluster")
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			if len(got.Rows) != k {
				t.Fatalf("%s: %d centres, want %d", v.Name, len(got.Rows), k)
			}
			for c, row := range got.Rows {
				for j, x := range row[1:] {
					if w := want.Centers[c*d+j]; math.Float64bits(x.F) != math.Float64bits(w) {
						t.Errorf("%s, %d workers: centre %d dim %d = %v, plain Go gives %v", v.Name, workers, c, j, x.F, w)
					}
				}
			}
		}
	}
}
