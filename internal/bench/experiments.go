package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/types"
	"lambdadb/internal/workload"
)

// Scale shrinks experiment sizes relative to the paper's grid so runs fit
// commodity hardware and time budgets. Scale 1 uses the paper's sizes
// (up to 500M tuples / 46M edges); the default benchrunner scale is
// smaller. Parameter *counts* (d, k, iterations) are never scaled.
type Scale struct {
	// MaxTuples caps the tuple-count sweep.
	MaxTuples int
	// BaseTuples is the fixed n for the dimension/cluster sweeps
	// (the paper uses 4M); 0 = min(MaxTuples, 4M).
	BaseTuples int
	// MaxEdges caps the PageRank graph sweep (directed edges).
	MaxEdges int
	// Systems optionally restricts the evaluated systems (nil = all).
	Systems []string
}

// DefaultScale finishes in a few minutes on a small machine while
// preserving every trend of the paper's figures. Raise the caps (up to the
// paper's 500M tuples / 46M edges) with benchrunner's -max-tuples and
// -max-edges flags on larger hardware.
var DefaultScale = Scale{MaxTuples: 800_000, BaseTuples: 200_000, MaxEdges: 500_000}

// systems returns the evaluated system list for this scale.
func (s Scale) systems() []string {
	if len(s.Systems) > 0 {
		return s.Systems
	}
	return AllSystems
}

// Row is one measured line of an experiment table. Stats holds the
// per-operator stats tree of engine-backed systems, keyed like Seconds
// (present only in JSON reports; the fixed-width tables omit it).
type Row struct {
	Label   string             `json:"label"`
	Seconds map[string]float64 `json:"seconds"`
	Stats   map[string]string  `json:"stats,omitempty"`
}

// Table is the output of one experiment: the paper artifact it reproduces
// plus measured rows.
type Table struct {
	ID      string   `json:"id"` // e.g. "fig4-tuples"
	Title   string   `json:"title"`
	Param   string   `json:"param"` // the swept parameter's column header
	Systems []string `json:"systems"`
	Rows    []Row    `json:"rows"`
}

// Print renders the table in the fixed-width layout EXPERIMENTS.md embeds.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "%-14s", t.Param)
	for _, s := range t.Systems {
		fmt.Fprintf(w, " %18s", s)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-14s", r.Label)
		for _, s := range t.Systems {
			sec, ok := r.Seconds[s]
			if !ok {
				fmt.Fprintf(w, " %18s", "-")
				continue
			}
			fmt.Fprintf(w, " %18.4f", sec)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// kmeansTupleCounts mirrors Table 1's tuple sweep, capped by scale.
func (s Scale) kmeansTupleCounts() []int {
	full := []int{160_000, 800_000, 4_000_000, 20_000_000, 100_000_000, 500_000_000}
	var out []int
	for _, n := range full {
		if n <= s.MaxTuples {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{s.MaxTuples}
	}
	return out
}

// kmeansBaseTuples is the fixed n for the d/k sweeps (paper: 4M), capped.
func (s Scale) kmeansBaseTuples() int {
	if s.BaseTuples > 0 {
		return s.BaseTuples
	}
	if s.MaxTuples < 4_000_000 {
		return s.MaxTuples
	}
	return 4_000_000
}

// dims and clusters follow Table 1 exactly.
var sweepDims = []int{3, 5, 10, 25, 50}
var sweepClusters = []int{3, 5, 10, 25, 50}

// measure times one run; fast runs (<1s) are re-measured once and the
// minimum is kept, so cold-start costs (first-touch page faults, parse
// caches) do not distort sub-second measurements. The stats tree of the
// kept run is returned alongside.
func measure(run func() (time.Duration, string, error)) (float64, string, error) {
	d1, stats, err := run()
	if err != nil {
		return 0, "", err
	}
	if d1 < time.Second {
		d2, stats2, err := run()
		if err != nil {
			return 0, "", err
		}
		if d2 < d1 {
			d1, stats = d2, stats2
		}
	}
	return d1.Seconds(), stats, nil
}

// Fig4Tuples reproduces Figure 4 (left): k-Means runtime vs tuple count
// (d=10, k=5, i=3).
func Fig4Tuples(scale Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "fig4-tuples",
		Title:   "k-Means runtime [s] vs number of tuples (d=10, k=5, 3 iterations)",
		Param:   "tuples",
		Systems: scale.systems()}
	for _, n := range scale.kmeansTupleCounts() {
		row, err := runKMeansCell(KMeansConfig{N: n, D: 10, K: 5, Iters: 3, Seed: 1},
			scale, fmt.Sprintf("%d", n), progress)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig4Dims reproduces Figure 4 (middle): k-Means vs dimensions.
func Fig4Dims(scale Scale, progress io.Writer) (*Table, error) {
	n := scale.kmeansBaseTuples()
	t := &Table{ID: "fig4-dims",
		Title:   fmt.Sprintf("k-Means runtime [s] vs dimensions (n=%d, k=5, 3 iterations)", n),
		Param:   "dimensions",
		Systems: scale.systems()}
	for _, d := range sweepDims {
		row, err := runKMeansCell(KMeansConfig{N: n, D: d, K: 5, Iters: 3, Seed: 2},
			scale, fmt.Sprintf("%d", d), progress)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig4Clusters reproduces Figure 4 (right): k-Means vs cluster count.
func Fig4Clusters(scale Scale, progress io.Writer) (*Table, error) {
	n := scale.kmeansBaseTuples()
	t := &Table{ID: "fig4-clusters",
		Title:   fmt.Sprintf("k-Means runtime [s] vs clusters (n=%d, d=10, 3 iterations)", n),
		Param:   "clusters",
		Systems: scale.systems()}
	for _, k := range sweepClusters {
		row, err := runKMeansCell(KMeansConfig{N: n, D: 10, K: k, Iters: 3, Seed: 3},
			scale, fmt.Sprintf("%d", k), progress)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runKMeansCell(cfg KMeansConfig, scale Scale, label string, progress io.Writer) (Row, error) {
	ds, err := PrepareKMeans(cfg)
	if err != nil {
		return Row{}, err
	}
	row := Row{Label: label, Seconds: map[string]float64{}}
	for _, sys := range scale.systems() {
		sec, stats, err := measure(func() (time.Duration, string, error) { return ds.Run(sys) })
		if err != nil {
			return Row{}, fmt.Errorf("kmeans %s (n=%d d=%d k=%d): %w", sys, cfg.N, cfg.D, cfg.K, err)
		}
		row.Seconds[sys] = sec
		row.addStats(sys, stats)
		if progress != nil {
			fmt.Fprintf(progress, "  kmeans %-12s %-20s %8.3fs\n", label, sys, sec)
		}
	}
	return row, nil
}

// addStats records a system's stats tree on the row (no-op when empty).
func (r *Row) addStats(sys, stats string) {
	if stats == "" {
		return
	}
	if r.Stats == nil {
		r.Stats = map[string]string{}
	}
	r.Stats[sys] = stats
}

// Fig5PageRank reproduces Figure 5 (left): PageRank on the LDBC-like
// graphs, damping 0.85, 45 iterations.
func Fig5PageRank(scale Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "fig5-pagerank",
		Title:   "PageRank runtime [s] on LDBC-like graphs (damping 0.85, 45 iterations)",
		Param:   "graph",
		Systems: scale.systems()}
	for _, sc := range workload.LDBCScales {
		if sc.DirectedEdges > scale.MaxEdges {
			continue
		}
		cfg := PageRankConfig{Vertices: sc.Vertices, DirectedEdges: sc.DirectedEdges,
			Damping: 0.85, Iters: 45, Seed: 4, Name: sc.Name}
		ds, err := PreparePageRank(cfg)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%dv/%de", sc.Vertices, sc.DirectedEdges)
		row := Row{Label: label, Seconds: map[string]float64{}}
		for _, sys := range scale.systems() {
			sec, stats, err := measure(func() (time.Duration, string, error) { return ds.Run(sys) })
			if err != nil {
				return nil, fmt.Errorf("pagerank %s (%s): %w", sys, sc.Name, err)
			}
			row.Seconds[sys] = sec
			row.addStats(sys, stats)
			if progress != nil {
				fmt.Fprintf(progress, "  pagerank %-14s %-20s %8.3fs\n", label, sys, sec)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if len(t.Rows) == 0 {
		// Always produce at least one scaled-down graph.
		cfg := PageRankConfig{Vertices: 11_000, DirectedEdges: scale.MaxEdges,
			Damping: 0.85, Iters: 45, Seed: 4}
		ds, err := PreparePageRank(cfg)
		if err != nil {
			return nil, err
		}
		row := Row{Label: fmt.Sprintf("%dv/%de", cfg.Vertices, cfg.DirectedEdges),
			Seconds: map[string]float64{}}
		for _, sys := range scale.systems() {
			d, stats, err := ds.Run(sys)
			if err != nil {
				return nil, err
			}
			row.Seconds[sys] = d.Seconds()
			row.addStats(sys, stats)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5NBTuples reproduces Figure 5 (middle): Naive Bayes training vs
// tuple count (d=10, two labels).
func Fig5NBTuples(scale Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "fig5-nb-tuples",
		Title:   "Naive Bayes training runtime [s] vs number of tuples (d=10, 2 labels)",
		Param:   "tuples",
		Systems: scale.systems()}
	for _, n := range scale.kmeansTupleCounts() {
		row, err := runNBCell(NBConfig{N: n, D: 10, Seed: 5}, scale, fmt.Sprintf("%d", n), progress)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5NBDims reproduces Figure 5 (right): Naive Bayes training vs
// dimensions.
func Fig5NBDims(scale Scale, progress io.Writer) (*Table, error) {
	n := scale.kmeansBaseTuples()
	t := &Table{ID: "fig5-nb-dims",
		Title:   fmt.Sprintf("Naive Bayes training runtime [s] vs dimensions (n=%d, 2 labels)", n),
		Param:   "dimensions",
		Systems: scale.systems()}
	for _, d := range sweepDims {
		row, err := runNBCell(NBConfig{N: n, D: d, Seed: 6}, scale, fmt.Sprintf("%d", d), progress)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runNBCell(cfg NBConfig, scale Scale, label string, progress io.Writer) (Row, error) {
	ds, err := PrepareNB(cfg)
	if err != nil {
		return Row{}, err
	}
	row := Row{Label: label, Seconds: map[string]float64{}}
	for _, sys := range scale.systems() {
		sec, stats, err := measure(func() (time.Duration, string, error) { return ds.Run(sys) })
		if err != nil {
			return Row{}, fmt.Errorf("nb %s (n=%d d=%d): %w", sys, cfg.N, cfg.D, err)
		}
		row.Seconds[sys] = sec
		row.addStats(sys, stats)
		if progress != nil {
			fmt.Fprintf(progress, "  nb %-12s %-20s %8.3fs\n", label, sys, sec)
		}
	}
	return row, nil
}

// IterateVsCTE is the Section 5.1 ablation (experiment E8): a pure
// relation-update loop of i iterations over n tuples, once with ITERATE
// (constant working set) and once with a recursive CTE (appending n·i
// tuples). It reports runtime and the peak tuple count each variant
// materializes.
func IterateVsCTE(n, iters int, progress io.Writer) (*Table, error) {
	db, err := prepareUpdateLoop(n)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "iterate-vs-cte",
		Title:   fmt.Sprintf("Non-appending ITERATE vs recursive CTE (n=%d tuples, %d iterations)", n, iters),
		Param:   "variant",
		Systems: []string{"seconds", "peak_tuples"}}

	iterQ := fmt.Sprintf(`SELECT count(*) FROM ITERATE (
  (SELECT id, val, 0 AS iter FROM vals),
  (SELECT id, val * 1.0001, iter + 1 FROM iterate),
  (SELECT id FROM iterate WHERE iter >= %d LIMIT 1))`, iters)
	cteQ := fmt.Sprintf(`WITH RECURSIVE r (id, val, iter) AS (
  SELECT id, val, 0 AS iter FROM vals
  UNION ALL
  SELECT id, val * 1.0001, iter + 1 FROM r WHERE iter < %d
) SELECT count(*) FROM r WHERE iter = %d`, iters, iters)

	for _, v := range []struct {
		name  string
		q     string
		tuple float64
	}{
		{"iterate", iterQ, float64(2 * n)},                // current + next working table
		{"recursive-cte", cteQ, float64(n * (iters + 1))}, // full accumulation
	} {
		d, stats, err := timeQuery(db, v.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		sec := d.Seconds()
		row := Row{Label: v.name,
			Seconds: map[string]float64{"seconds": sec, "peak_tuples": v.tuple}}
		row.addStats("seconds", stats)
		t.Rows = append(t.Rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "  %-14s %8.3fs (peak %v tuples)\n", v.name, sec, v.tuple)
		}
	}
	return t, nil
}

// prepareUpdateLoop loads a vals(id, val) table of n rows.
func prepareUpdateLoop(n int) (*engine.DB, error) {
	db := engine.Open()
	schema := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "val", Type: types.Float64},
	}
	store := db.Store()
	tbl, err := store.CreateTable("vals", schema)
	if err != nil {
		return nil, err
	}
	tx := store.Begin()
	const chunk = 1 << 16
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		b := types.NewBatch(schema)
		for i := lo; i < hi; i++ {
			b.Cols[0].AppendInt(int64(i))
			b.Cols[1].AppendFloat(float64(i))
		}
		if err := tx.Insert(tbl, b); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return db, nil
}

// Table1 prints the paper's Table 1: the k-Means experiment grid.
func Table1(scale Scale) *Table {
	t := &Table{ID: "table1",
		Title:   "k-Means dataset grid (paper Table 1; applied sizes after scaling)",
		Param:   "experiment",
		Systems: []string{"tuples", "dimensions", "clusters"}}
	add := func(kind string, n, d, k int) {
		t.Rows = append(t.Rows, Row{Label: kind, Seconds: map[string]float64{
			"tuples": float64(n), "dimensions": float64(d), "clusters": float64(k)}})
	}
	for _, n := range scale.kmeansTupleCounts() {
		add("vary-tuples", n, 10, 5)
	}
	base := scale.kmeansBaseTuples()
	for _, d := range sweepDims {
		add("vary-dims", base, d, 5)
	}
	for _, k := range sweepClusters {
		add("vary-clusters", base, 10, k)
	}
	return t
}

// LambdaVariant is one of E9's k-Means operator queries: the default
// metric, or one distance lambda.
type LambdaVariant struct{ Name, Query string }

// LambdaVariantQueries lists E9's queries over d dimensions: the default
// Euclidean metric, then the explicit Euclidean, Manhattan (k-Medians) and
// weighted Euclidean lambdas.
func LambdaVariantQueries(d, iters int) []LambdaVariant {
	dims := dimList("", d, "d%[2]d")
	return []LambdaVariant{
		{"default(L2)", fmt.Sprintf(`SELECT * FROM KMEANS ((SELECT %s FROM points), (SELECT %s FROM centers), %d)`,
			dims, dims, iters)},
		{"lambda-L2", KMeansOperatorLambdaQuery(d, iters)},
		{"lambda-L1", kmeansLambdaQuery(d, iters, l1Lambda(d))},
		{"lambda-weighted", kmeansLambdaQuery(d, iters, weightedLambda(d))},
	}
}

// LambdaVariants is experiment E9: the same k-Means operator parameterized
// with different lambdas (LambdaVariantQueries) — demonstrating that lambda
// flexibility does not sacrifice operator performance (Section 7).
func LambdaVariants(n, d, k, iters int, progress io.Writer) (*Table, error) {
	ds, err := PrepareKMeans(KMeansConfig{N: n, D: d, K: k, Iters: iters, Seed: 8})
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "lambda-variants",
		Title:   fmt.Sprintf("k-Means operator with lambda variants (n=%d, d=%d, k=%d, %d iterations)", n, d, k, iters),
		Param:   "lambda",
		Systems: []string{"seconds"}}

	for _, v := range LambdaVariantQueries(d, iters) {
		dur, stats, err := timeQuery(ds.DB, v.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		sec := dur.Seconds()
		row := Row{Label: v.Name, Seconds: map[string]float64{"seconds": sec}}
		row.addStats("seconds", stats)
		t.Rows = append(t.Rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "  %-16s %8.3fs\n", v.Name, sec)
		}
	}
	return t, nil
}

func kmeansLambdaQuery(d, iters int, lambda string) string {
	dims := dimList("", d, "d%[2]d")
	return fmt.Sprintf(`SELECT * FROM KMEANS ((SELECT %s FROM points), (SELECT %s FROM centers), %s, %d)`,
		dims, dims, lambda, iters)
}

func l1Lambda(d int) string {
	terms := make([]string, d)
	for j := 0; j < d; j++ {
		terms[j] = fmt.Sprintf("abs(a.d%d - b.d%d)", j, j)
	}
	return "λ(a, b) " + joinPlus(terms)
}

func weightedLambda(d int) string {
	terms := make([]string, d)
	for j := 0; j < d; j++ {
		terms[j] = fmt.Sprintf("%d * (a.d%d - b.d%d)^2", j+1, j, j)
	}
	return "λ(a, b) " + joinPlus(terms)
}

func joinPlus(terms []string) string {
	out := terms[0]
	for _, t := range terms[1:] {
		out += " + " + t
	}
	return out
}

// Experiments maps experiment ids to their runners (the per-experiment
// index of DESIGN.md).
func Experiments(scale Scale) map[string]func(io.Writer) (*Table, error) {
	return map[string]func(io.Writer) (*Table, error){
		"table1":         func(io.Writer) (*Table, error) { return Table1(scale), nil },
		"fig4-tuples":    func(w io.Writer) (*Table, error) { return Fig4Tuples(scale, w) },
		"fig4-dims":      func(w io.Writer) (*Table, error) { return Fig4Dims(scale, w) },
		"fig4-clusters":  func(w io.Writer) (*Table, error) { return Fig4Clusters(scale, w) },
		"fig5-pagerank":  func(w io.Writer) (*Table, error) { return Fig5PageRank(scale, w) },
		"fig5-nb-tuples": func(w io.Writer) (*Table, error) { return Fig5NBTuples(scale, w) },
		"fig5-nb-dims":   func(w io.Writer) (*Table, error) { return Fig5NBDims(scale, w) },
		"iterate-vs-cte": func(w io.Writer) (*Table, error) {
			n := 100_000
			if scale.MaxTuples < n {
				n = scale.MaxTuples
			}
			return IterateVsCTE(n, 10, w)
		},
		"lambda-variants": func(w io.Writer) (*Table, error) {
			n := 200_000
			if scale.MaxTuples < n {
				n = scale.MaxTuples
			}
			return LambdaVariants(n, 10, 5, 3, w)
		},
	}
}

// ExperimentIDs lists experiment ids in a stable order.
func ExperimentIDs(scale Scale) []string {
	m := Experiments(scale)
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
