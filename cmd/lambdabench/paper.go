package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"lambdadb/internal/analytics"
	"lambdadb/internal/bench"
	"lambdadb/internal/engine"
	"lambdadb/internal/exec"
	"lambdadb/internal/graph"
)

const damping = 0.85

// The three integration layers the paper compares, as op classes a, b, c.
var layerNames = [3]string{"operator", "iterate", "cte"}

var paperSpans = [numClasses]string{"paper.operator", "paper.iterate", "paper.cte", ""}

// paperLayers is the paper's Figure 4/5 comparison on an embedded engine:
// k-Means and PageRank, each as a layer-4 operator, as ITERATE and as a
// recursive CTE. It bypasses every serving layer and uses the executor
// differently from scan_agg: per-round re-materialisation and rebuilt hash
// tables.
type paperLayers struct {
	h    *harness
	sz   sizes
	seed int64

	top  *cleanup
	km   *bench.KMeansDataset
	pr   *bench.PageRankDataset
	sess *paperSession
}

func (w *paperLayers) spanNames() [numClasses]string { return paperSpans }

func (w *paperLayers) setup(ctx context.Context) error {
	w.top = w.h.topology()
	var err error
	w.km, err = bench.PrepareKMeans(bench.KMeansConfig{N: w.sz.kmeansN, D: w.sz.kmeansD, K: w.sz.kmeansK, Iters: w.sz.kmeansIters, Seed: w.seed})
	if err != nil {
		return fmt.Errorf("prepare k-Means: %w", err)
	}
	w.top.add(phaseEngines, func() { _ = w.km.DB.Close() })
	w.pr, err = bench.PreparePageRank(bench.PageRankConfig{Vertices: w.sz.prVertices, DirectedEdges: w.sz.prEdges, Damping: damping, Iters: w.sz.prIters, Seed: w.seed})
	if err != nil {
		return fmt.Errorf("prepare PageRank: %w", err)
	}
	w.top.add(phaseEngines, func() { _ = w.pr.DB.Close() })
	w.sess = &paperSession{w: w, operatorReps: w.sz.operatorReps}
	return nil
}

func (w *paperLayers) clients() []session { return []session{w.sess} }

// check: every result was held to the operator's as it returned.
func (w *paperLayers) check(ctx context.Context) error { return nil }

func (w *paperLayers) close() { w.h.release(w.top) }

func (w *paperLayers) kmeansSQL(layer int) string {
	d, it := w.sz.kmeansD, w.sz.kmeansIters
	switch layer {
	case classA:
		return bench.KMeansOperatorQuery(d, it)
	case classB:
		return bench.KMeansIterateQuery(d, it)
	default:
		return bench.KMeansRecursiveCTEQuery(d, it)
	}
}

func (w *paperLayers) pagerankSQL(layer int) string {
	switch layer {
	case classA:
		return bench.PageRankOperatorQuery(damping, 0, w.sz.prIters)
	case classB:
		return bench.PageRankIterateQuery(damping, w.sz.prIters)
	default:
		return bench.PageRankRecursiveCTEQuery(damping, w.sz.prIters)
	}
}

// paperSession runs rounds of operatorReps operator ops, one ITERATE op
// and one CTE op; an op is k-Means then PageRank at that layer. The
// operator runs more often because it is two orders of magnitude shorter.
type paperSession struct {
	w            *paperLayers
	operatorReps int
	i            int

	refCenters [][]float64       // the operator's first answer
	refRanks   map[int64]float64 // likewise
}

func (s *paperSession) next(ctx context.Context) (op, error) {
	pos := s.i % (s.operatorReps + 2)
	s.i++
	layer := classA
	if pos >= s.operatorReps {
		layer = classB + pos - s.operatorReps
	}
	start := time.Now()
	km, err := s.w.km.DB.QueryContext(ctx, s.w.kmeansSQL(layer))
	if err != nil {
		return op{}, fmt.Errorf("k-Means %s: %w", layerNames[layer], err)
	}
	pr, err := s.w.pr.DB.QueryContext(ctx, s.w.pagerankSQL(layer))
	o := op{class: layer, start: start, lat: time.Since(start)}
	if err != nil {
		return o, fmt.Errorf("PageRank %s: %w", layerNames[layer], err)
	}
	if err := s.checkCenters(km, layer); err != nil {
		return o, err
	}
	return o, s.checkRanks(pr, layer)
}

// checkCenters holds a layer's centres to the operator's within 1e-6.
// Cluster ids differ between layers, so centres are compared in
// coordinate order.
func (s *paperSession) checkCenters(res *engine.Result, layer int) error {
	centers := make([][]float64, 0, len(res.Rows))
	for _, row := range res.Rows {
		c := make([]float64, 0, len(row)-1)
		for _, v := range row[1:] {
			c = append(c, v.AsFloat())
		}
		centers = append(centers, c)
	}
	sort.Slice(centers, func(i, j int) bool {
		for x := range centers[i] {
			if centers[i][x] != centers[j][x] {
				return centers[i][x] < centers[j][x]
			}
		}
		return false
	})
	if s.refCenters == nil {
		if layer != classA {
			return fmt.Errorf("k-Means %s ran before the operator set the reference", layerNames[layer])
		}
		if len(centers) != s.w.sz.kmeansK {
			return fmt.Errorf("k-Means operator returned %d centres, want %d", len(centers), s.w.sz.kmeansK)
		}
		s.refCenters = centers
		return nil
	}
	if len(centers) != len(s.refCenters) {
		return fmt.Errorf("k-Means %s returned %d centres, the operator %d", layerNames[layer], len(centers), len(s.refCenters))
	}
	for i := range centers {
		for j := range centers[i] {
			if math.Abs(centers[i][j]-s.refCenters[i][j]) > 1e-6 {
				return fmt.Errorf("k-Means %s centre %d dim %d = %v, the operator's is %v", layerNames[layer], i, j, centers[i][j], s.refCenters[i][j])
			}
		}
	}
	return nil
}

// checkRanks holds a layer's ranks to the operator's within 1e-9 and their
// sum to 1.
func (s *paperSession) checkRanks(res *engine.Result, layer int) error {
	ranks := make(map[int64]float64, len(res.Rows))
	total := 0.0
	for _, row := range res.Rows {
		ranks[row[0].AsInt()] = row[1].AsFloat()
		total += row[1].AsFloat()
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("PageRank %s ranks sum to %v, want 1", layerNames[layer], total)
	}
	if s.refRanks == nil {
		if layer != classA {
			return fmt.Errorf("PageRank %s ran before the operator set the reference", layerNames[layer])
		}
		s.refRanks = ranks
		return nil
	}
	if len(ranks) != len(s.refRanks) {
		return fmt.Errorf("PageRank %s ranked %d vertices, the operator %d", layerNames[layer], len(ranks), len(s.refRanks))
	}
	for v, want := range s.refRanks {
		if math.Abs(ranks[v]-want) > 1e-9 {
			return fmt.Errorf("PageRank %s rank[%d] = %v, the operator's is %v", layerNames[layer], v, ranks[v], want)
		}
	}
	return nil
}

// iterationStats finds the iterative operator's per-round telemetry in a
// stats tree.
func iterationStats(n *exec.OpStats) []exec.IterationStat {
	if n == nil {
		return nil
	}
	if len(n.Iterations) > 0 {
		return n.Iterations
	}
	for _, c := range n.Children {
		if it := iterationStats(c); it != nil {
			return it
		}
	}
	return nil
}

// layers times each algorithm at each layer on its own, the kernels
// directly on the raw arrays, and reads per-round times and peak bytes
// from a run with operator statistics armed.
func (w *paperLayers) layers(ctx context.Context, tr *tracer, m *metrics, out io.Writer) error {
	sz := w.sz
	algos := []struct {
		name string
		db   *engine.DB
		sql  func(layer int) string
	}{{"kmeans", w.km.DB, w.kmeansSQL}, {"pagerank", w.pr.DB, w.pagerankSQL}}

	// Each algorithm x layer, timed with statistics off.
	for _, a := range algos {
		for layer, lname := range layerNames {
			reps := sz.probeSQLReps
			if layer == classA {
				reps = sz.probeCycles
			}
			span := "paper." + a.name + "." + lname
			if err := tr.passes(ctx, 1, reps, func(t *tracer, i int) error {
				return t.timed(span, noSpan, func() error {
					_, err := a.db.QueryContext(ctx, a.sql(layer))
					return err
				})
			}); err != nil {
				return fmt.Errorf("%s: %w", span, err)
			}
		}
	}

	// Per-round times and peak bytes, from one run each with statistics on.
	type rounds struct {
		n                          int
		total, first, last, peakMB float64 // ms, MiB
	}
	stats := map[string]rounds{}
	for _, a := range algos {
		for _, layer := range []int{classB, classC} {
			s := a.db.NewSession()
			s.CollectStats(true)
			_, err := s.ExecContext(ctx, a.sql(layer))
			its := iterationStats(s.LastStats())
			peak := s.LastPeakBytes()
			s.Close()
			if err != nil {
				return err
			}
			if len(its) == 0 {
				return fmt.Errorf("%s %s: the statistics tree holds no iteration", a.name, layerNames[layer])
			}
			r := rounds{n: len(its), peakMB: float64(peak) / (1 << 20)}
			for _, it := range its {
				r.total += float64(it.Nanos) / 1e6
			}
			r.first, r.last = float64(its[0].Nanos)/1e6, float64(its[len(its)-1].Nanos)/1e6
			stats[a.name+"_"+layerNames[layer]] = r
		}
	}

	// The kernels, called directly.
	reps := sz.probeCycles
	var g *graph.CSR
	if err := tr.passes(ctx, 1, reps, func(t *tracer, i int) error {
		if err := t.timed("analytics.kmeans_kernel", noSpan, func() error {
			_, err := analytics.KMeans(w.km.Data, sz.kmeansN, sz.kmeansD, w.km.Centers, sz.kmeansK,
				analytics.KMeansOptions{MaxIter: sz.kmeansIters, Workers: w.km.DB.Workers()})
			return err
		}); err != nil {
			return err
		}
		if err := t.timed("graph.csr_build", noSpan, func() error {
			var err error
			g, err = graph.Build(w.pr.Graph.Src, w.pr.Graph.Dst)
			return err
		}); err != nil {
			return err
		}
		return t.timed("analytics.pagerank_kernel", noSpan, func() error {
			_, err := analytics.PageRank(g, analytics.PageRankOptions{Damping: damping, MaxIter: sz.prIters, Workers: w.pr.DB.Workers()})
			return err
		})
	}); err != nil {
		return err
	}

	es := w.km.DB.NewSession()
	err := frontEnd(ctx, es, []string{w.kmeansSQL(classA), w.kmeansSQL(classB), w.kmeansSQL(classC)}, reps, tr, "paper.")
	es.Close()
	if err != nil {
		return err
	}
	es = w.pr.DB.NewSession()
	err = frontEnd(ctx, es, []string{w.pagerankSQL(classA), w.pagerankSQL(classB), w.pagerankSQL(classC)}, reps, tr, "paper.")
	es.Close()
	if err != nil {
		return err
	}

	ms := func(span string) float64 { return tr.p50(span) / 1e6 }
	set := []namedValue{
		{"engine.paper_explain_ms", sum(tr.durations("paper.explain")) / float64(reps) / 1e6},
		{"sql.paper_parse_us", sum(tr.durations("paper.parse")) / float64(reps) / 1e3},
		{"analytics.kmeans_kernel_ms", ms("analytics.kmeans_kernel")},
		{"engine.kmeans_operator_overhead_ms", ms("paper.kmeans.operator") - ms("analytics.kmeans_kernel")},
		{"analytics.pagerank_kernel_ms", ms("analytics.pagerank_kernel")},
		{"graph.csr_build_ms", ms("graph.csr_build")},
		{"engine.pagerank_operator_overhead_ms", ms("paper.pagerank.operator") - ms("analytics.pagerank_kernel") - ms("graph.csr_build")},
		{"exec.pagerank_iterate_round_first_ms", stats["pagerank_iterate"].first},
		{"exec.pagerank_iterate_round_last_ms", stats["pagerank_iterate"].last},
		{"exec.pagerank_cte_round_first_ms", stats["pagerank_cte"].first},
		{"exec.pagerank_cte_round_last_ms", stats["pagerank_cte"].last},
	}
	for _, a := range algos {
		for _, lname := range layerNames {
			set = append(set, namedValue{"paper." + a.name + "_" + lname + "_ms", ms("paper." + a.name + "." + lname)})
		}
		for _, lname := range layerNames[1:] {
			r := stats[a.name+"_"+lname]
			set = append(set,
				namedValue{"exec." + a.name + "_" + lname + "_round_ms", r.total / float64(r.n)},
				namedValue{"exec." + a.name + "_" + lname + "_peak_mb", r.peakMB})
		}
		set = append(set,
			namedValue{"paper." + a.name + "_iterate_over_operator", ms("paper."+a.name+".iterate") / ms("paper."+a.name+".operator")},
			namedValue{"paper." + a.name + "_cte_over_iterate", ms("paper."+a.name+".cte") / ms("paper."+a.name+".iterate")})
	}
	if err := m.setAll(set); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nbudget paper_layers: k-Means n=%d d=%d k=%d, %d iterations; PageRank %d vertices, %d edges, %d iterations\n",
		sz.kmeansN, sz.kmeansD, sz.kmeansK, sz.kmeansIters, w.pr.Graph.NumVertices, w.pr.Graph.NumDirectedEdges(), sz.prIters)
	fmt.Fprintf(out, " k-Means operator p50 = %.3f ms (n=%d)\n", ms("paper.kmeans.operator"), sz.probeCycles)
	printBudget(out, "ms", ms("paper.kmeans.operator"), []namedValue{
		{"analytics.kmeans_kernel_ms", ms("analytics.kmeans_kernel")},
	})
	fmt.Fprintf(out, " PageRank operator p50 = %.3f ms (n=%d)\n", ms("paper.pagerank.operator"), sz.probeCycles)
	printBudget(out, "ms", ms("paper.pagerank.operator"), []namedValue{
		{"graph.csr_build_ms", ms("graph.csr_build")},
		{"analytics.pagerank_kernel_ms", ms("analytics.pagerank_kernel")},
	})
	for _, a := range algos {
		for _, lname := range layerNames[1:] {
			r := stats[a.name+"_"+lname]
			total := ms("paper." + a.name + "." + lname)
			fmt.Fprintf(out, " %s %s p50 = %.3f ms (n=%d)\n", a.name, lname, total, sz.probeSQLReps)
			printBudget(out, "ms", total, []namedValue{
				{fmt.Sprintf("%d rounds x exec.%s_%s_round_ms", r.n, a.name, lname), r.total},
			})
		}
		fmt.Fprintf(out, " %s: iterate / operator = %.2f (operator %.3f ms); cte / iterate = %.3f (iterate %.3f ms)\n", a.name,
			m.get("paper."+a.name+"_iterate_over_operator"), ms("paper."+a.name+".operator"),
			m.get("paper."+a.name+"_cte_over_iterate"), ms("paper."+a.name+".iterate"))
	}
	return nil
}
