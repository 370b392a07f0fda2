package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json and its unit. The two lists
// below are the single source inside the harness; TestMetricsMatchBenchmarkJSON
// holds them equal to BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload. The op
// classes a, b, c are per workload (see README.md):
//
//	oltp_cluster  a = point read, b = insert, c = update
//	scan_agg      a = filter+aggregates, b = 100-group GROUP BY, c = join+GROUP BY
//	result_fetch  a = 1k-row fetch, b = 10k-row fetch, c = 100k-row fetch
//	paper_layers  a = operator, b = ITERATE, c = recursive CTE (k-Means then PageRank)
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_a_p10_ms", "ms"},
	{"op_b_p10_ms", "ms"},
	{"op_c_p10_ms", "ms"},
	{"heap_after_gc_mb", "MB"},
}

// perLayer is printed by every traced run: a traced run measures every
// layer on all four data sets, whichever workload it was asked for, so no
// value is ever a stand-in. Only the trace.* lines depend on -workload.
var perLayer = []metricDef{
	// oltp_cluster: the serving hops of one point read, by subtraction.
	{"engine.point_read_us", "us"},
	{"server.hop_us", "us"},
	{"cluster.router_hop_us", "us"},
	{"cluster.routed_read_us", "us"},
	{"oltp.mix_read_residual_us", "us"},
	{"client.read_p99_us", "us"},
	{"cluster.replica_read_share", "ratio"},
	{"cluster.read_retries", "count"},
	{"wire.bind_encode_ns", "ns"},
	{"wire.bind_decode_ns", "ns"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.adhoc_miss_read_us", "us"},
	{"storage.index_rows_per_probe", "count"},
	// oltp_cluster: the commit path.
	{"engine.insert_us", "us"},
	{"engine.update_us", "us"},
	{"wal.commit_wait_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.bytes_per_commit", "B"},
	{"repl.semisync_wait_us", "us"},
	{"repl.apply_lag_p50", "count"},
	{"client.open_read_p99_us", "us"},
	{"client.generator_late_p99_us", "us"},
	// scan_agg.
	{"exec.filter_ms", "ms"},
	{"exec.agg_ms", "ms"},
	{"exec.join_ms", "ms"},
	{"exec.topk_ms", "ms"},
	{"scan.cycle_ms", "ms"},
	{"scan.cycle_residual_ms", "ms"},
	{"exec.rows_scanned_per_s", "1/s"},
	{"exec.speedup_workers", "ratio"},
	{"engine.explain_ms", "ms"},
	{"sql.parse_us", "us"},
	// result_fetch.
	{"engine.select_ms", "ms"},
	{"engine.count_ms", "ms"},
	{"engine.pivot_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.payload_mb", "MB"},
	{"wire.bytes_per_row", "B"},
	{"wire.encode_allocs_per_row", "count"},
	{"wire.decode_allocs_per_row", "count"},
	{"engine.select_allocs_per_row", "count"},
	{"fetch.server_ms", "ms"},
	{"server.transfer_ms", "ms"},
	{"result.peak_heap_mb", "MB"},
	{"wire.oversize_result_ok", "count"},
	// paper_layers.
	{"paper.kmeans_operator_ms", "ms"},
	{"paper.kmeans_iterate_ms", "ms"},
	{"paper.kmeans_cte_ms", "ms"},
	{"paper.pagerank_operator_ms", "ms"},
	{"paper.pagerank_iterate_ms", "ms"},
	{"paper.pagerank_cte_ms", "ms"},
	{"analytics.kmeans_kernel_ms", "ms"},
	{"engine.kmeans_operator_overhead_ms", "ms"},
	{"analytics.pagerank_kernel_ms", "ms"},
	{"graph.csr_build_ms", "ms"},
	{"engine.pagerank_operator_overhead_ms", "ms"},
	{"exec.kmeans_iterate_round_ms", "ms"},
	{"exec.kmeans_cte_round_ms", "ms"},
	{"exec.pagerank_iterate_round_ms", "ms"},
	{"exec.pagerank_iterate_round_first_ms", "ms"},
	{"exec.pagerank_iterate_round_last_ms", "ms"},
	{"exec.pagerank_cte_round_ms", "ms"},
	{"exec.pagerank_cte_round_first_ms", "ms"},
	{"exec.pagerank_cte_round_last_ms", "ms"},
	{"exec.kmeans_iterate_peak_mb", "MB"},
	{"exec.kmeans_cte_peak_mb", "MB"},
	{"exec.pagerank_iterate_peak_mb", "MB"},
	{"exec.pagerank_cte_peak_mb", "MB"},
	{"paper.kmeans_iterate_over_operator", "ratio"},
	{"paper.pagerank_iterate_over_operator", "ratio"},
	{"paper.kmeans_cte_over_iterate", "ratio"},
	{"paper.pagerank_cte_over_iterate", "ratio"},
	{"engine.paper_explain_ms", "ms"},
	{"sql.paper_parse_us", "us"},
	// The traced window of the workload named by -workload.
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's values against a fixed list of definitions:
// set rejects a name the list does not have or a second value for a name,
// and missing names what was never set.
type metrics struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (m *metrics) set(name string, v float64) error {
	if _, dup := m.values[name]; dup {
		return fmt.Errorf("metric %s set twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is not finite: %v", name, v)
	}
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = metricValue{Value: v, Unit: d.unit}
			return nil
		}
	}
	return fmt.Errorf("metric %s is not declared", name)
}

func (m *metrics) setAll(vs []namedValue) error {
	for _, v := range vs {
		if err := m.set(v.name, v.value); err != nil {
			return err
		}
	}
	return nil
}

func (m *metrics) get(name string) float64 { return m.values[name].Value }

func (m *metrics) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). An empty sample is a caller
// bug: every timed phase runs at least once.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("quantile of an empty sample")
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
