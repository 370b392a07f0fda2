package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// ---------------------------------------------------------------------------
// Execution telemetry
//
// When a query arms stats collection (Context.EnableStats), every physical
// operator built for it is wrapped in a statsOp that counts rows, batches,
// estimated bytes, and inclusive wall time into thread-local counters, merged
// into the shared collector exactly once at operator Close. The hot path
// (Next) takes no locks; the morsels of a pipeline each carry their own
// wrapper of the same plan node, and their counters meet in that node's
// record at pipeline end.
//
// When stats are disarmed (the default) buildWith receives a nil collector
// and constructs exactly the same operator tree as before this layer existed:
// no wrappers, no timers, no per-batch work — the disarmed path is the seed
// path.
// ---------------------------------------------------------------------------

// IterationStat records one round of an iterative operator (ITERATE,
// recursive CTE, k-Means, PageRank).
type IterationStat struct {
	// Round is the 1-based iteration number.
	Round int
	// Rows is the round's working-set size: working-table rows after the
	// round, or changed assignments for k-Means.
	Rows int64
	// Delta is the algorithm's convergence measure for the round: row-count
	// change for ITERATE/recursive CTEs, changed assignments for k-Means,
	// the L1 rank change for PageRank.
	Delta float64
	// Nanos is the round's wall time.
	Nanos int64
}

// OpStats is one node of a query's executed-operator statistics tree, as
// rendered by EXPLAIN ANALYZE. Counters are cumulative over every execution
// of the plan node: morsel-parallel parts and per-iteration re-executions
// all fold into the same node.
type OpStats struct {
	// Name is the plan node's Explain label ("Scan lineitem", "HashJoin", …).
	Name string
	// RowsOut / Batches / Bytes describe the operator's output: row count,
	// batch count, and estimated bytes of the emitted batches' columns the
	// operator wrote itself — a Filter's lent selection and a Project's
	// pass-through columns are its input's and count nothing.
	RowsOut int64
	Batches int64
	Bytes   int64
	// Est is the planner's cardinality estimate for the node (plan.Node.Card
	// at explain time), rendered next to the actual row count so estimation
	// errors are visible in EXPLAIN ANALYZE.
	Est float64
	// TimeNanos is cumulative busy time across all instances of the
	// operator, inclusive of its children (for morsel-parallel fragments
	// this is CPU-style work time, not elapsed wall time).
	TimeNanos int64
	// Instances counts how many physical operator instances executed for
	// this plan node: >1 means morsel-parallel parts and/or iterative
	// re-execution. 0 means the node was never executed.
	Instances int64
	// Iterations holds per-round telemetry for iterative operators.
	Iterations []IterationStat
	// Children mirror the plan tree.
	Children []*OpStats
}

// TotalRows returns the root operator's output row count (convenience for
// result summaries).
func (s *OpStats) TotalRows() int64 {
	if s == nil {
		return 0
	}
	return s.RowsOut
}

// opRecord is the collector-side accumulator for one plan node.
type opRecord struct {
	rows, batches, bytes, nanos, instances int64
	iterations                             []IterationStat
}

// StatsCollector accumulates per-operator execution statistics for one
// query. Operators merge their thread-local counters under the collector
// mutex only at Close, so collection adds no locking to the per-batch path.
type StatsCollector struct {
	mu    sync.Mutex
	nodes map[plan.Node]*opRecord
}

func newStatsCollector() *StatsCollector {
	return &StatsCollector{nodes: map[plan.Node]*opRecord{}}
}

func (sc *StatsCollector) recordLocked(n plan.Node) *opRecord {
	r := sc.nodes[n]
	if r == nil {
		r = &opRecord{}
		sc.nodes[n] = r
	}
	return r
}

// merge folds one operator instance's counters into the node's record.
func (sc *StatsCollector) merge(node plan.Node, rows, batches, bytes, nanos int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	r := sc.recordLocked(node)
	r.rows += rows
	r.batches += batches
	r.bytes += bytes
	r.nanos += nanos
	r.instances++
}

// AddIteration appends one round's telemetry to an iterative operator's
// record.
func (sc *StatsCollector) AddIteration(node plan.Node, it IterationStat) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	r := sc.recordLocked(node)
	r.iterations = append(r.iterations, it)
}

// Tree assembles the stats tree for the plan that ran, mirroring its
// shape. Alias nodes are transparent, matching how buildWith skips them.
func (sc *StatsCollector) Tree(root plan.Node) *OpStats {
	if sc == nil || root == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.treeLocked(root)
}

func (sc *StatsCollector) treeLocked(n plan.Node) *OpStats {
	if a, ok := n.(*plan.Alias); ok {
		return sc.treeLocked(a.Child)
	}
	out := &OpStats{Name: n.Explain(), Est: n.Card()}
	if r := sc.nodes[n]; r != nil {
		out.RowsOut = r.rows
		out.Batches = r.batches
		out.Bytes = r.bytes
		out.TimeNanos = r.nanos
		out.Instances = r.instances
		out.Iterations = append([]IterationStat(nil), r.iterations...)
	}
	for _, c := range n.Children() {
		out.Children = append(out.Children, sc.treeLocked(c))
	}
	return out
}

// statsOp wraps a physical operator with telemetry. Counters are plain
// fields — each instance is driven by one goroutine — merged into the shared
// collector once, at Close.
type statsOp struct {
	inner  Operator
	node   plan.Node
	sc     *StatsCollector
	rows   int64
	batchN int64
	bytes  int64
	nanos  int64
	merged bool
}

func (s *statsOp) Schema() types.Schema { return s.inner.Schema() }

func (s *statsOp) Open(ctx *Context) error {
	start := time.Now()
	err := s.inner.Open(ctx)
	s.nanos += time.Since(start).Nanoseconds()
	return err
}

func (s *statsOp) Next() (*types.Batch, error) {
	start := time.Now()
	b, err := s.inner.Next()
	s.nanos += time.Since(start).Nanoseconds()
	if b != nil {
		s.rows += int64(b.Len())
		s.batchN++
		if w, ok := s.inner.(writer); ok {
			s.bytes += w.writtenBytes(b)
		} else {
			s.bytes += batchBytes(b)
		}
	}
	return b, err
}

// writer is an operator whose output may hold columns it did not write: its
// input's, passed through or lent under a selection. Its bytes count only
// the columns it wrote; every other operator's count its whole output.
type writer interface {
	writtenBytes(b *types.Batch) int64
}

func (s *statsOp) Close() error {
	start := time.Now()
	err := s.inner.Close()
	s.nanos += time.Since(start).Nanoseconds()
	if !s.merged {
		s.merged = true
		s.sc.merge(s.node, s.rows, s.batchN, s.bytes, s.nanos)
	}
	return err
}

// FormatStatsTree renders an OpStats tree as an indented text block, the
// body of EXPLAIN ANALYZE output.
func FormatStatsTree(root *OpStats) string {
	var b strings.Builder
	writeStatsNode(&b, root, 0)
	return b.String()
}

func writeStatsNode(b *strings.Builder, n *OpStats, depth int) {
	if n == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	if n.Instances == 0 {
		fmt.Fprintf(b, "%s%s (not executed)\n", indent, n.Name)
	} else {
		fmt.Fprintf(b, "%s%s (rows=%d est=%.0f time=%s bytes=%s",
			indent, n.Name, n.RowsOut, n.Est, formatNanos(n.TimeNanos), FormatBytes(n.Bytes))
		if n.Instances > 1 {
			fmt.Fprintf(b, " instances=%d", n.Instances)
		}
		b.WriteString(")\n")
	}
	for _, it := range n.Iterations {
		fmt.Fprintf(b, "%s  [iter %d] rows=%d delta=%g time=%s\n",
			indent, it.Round, it.Rows, it.Delta, formatNanos(it.Nanos))
	}
	for _, c := range n.Children {
		writeStatsNode(b, c, depth+1)
	}
}

// formatNanos renders a duration compactly, rounded so the output stays
// readable (full nanosecond precision is noise in a profile).
func formatNanos(n int64) string {
	d := time.Duration(n)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// FormatBytes renders a byte estimate with binary units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
