// Package exec implements the vectorized (batch-at-a-time) physical
// execution engine: relational operators, the paper's iterate operator and
// recursive CTEs, and the bridges to the analytical operators.
//
// Operators follow the Volcano protocol with batches: Open prepares state,
// Next returns the next batch (nil at end), Close releases resources.
// Parallelism is morsel-style: pipelines rooted at a base-table scan can be
// split into physical row ranges and executed by a worker pool (used by
// aggregation and the analytical operators' input materialization).
package exec

import (
	"context"
	"fmt"
	"runtime"

	"lambdadb/internal/catalog"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// Context carries per-query execution state.
type Context struct {
	// Workers is the parallelism degree for morsel-parallel fragments.
	Workers int
	// Bindings maps working-table names (ITERATE, recursive CTEs) to their
	// current contents.
	Bindings map[string]*Materialized
	// OnIndexProbe, when set, is invoked once per completed index-scan
	// operator with the number of rows it produced (engine telemetry).
	OnIndexProbe func(rows int64)

	// goCtx governs cancellation and deadlines; nil means no cancellation
	// (context.Background semantics). Operators check it at morsel
	// boundaries via Err, so a cancelled query aborts within one morsel's
	// work even inside worker pools.
	goCtx context.Context
	// mem is the per-query memory accountant; nil means unlimited.
	mem *memAccountant
	// stats is the per-query telemetry collector; nil means disarmed (the
	// default), in which case buildWith constructs the exact seed operator
	// tree with no wrappers.
	stats *StatsCollector

	// epoch names the loop round this context runs — 0 is the statement
	// itself, outside every loop — and never changes: each round of an
	// ITERATE / recursive CTE runs under a context of its own (see round),
	// so the parts of a pipeline agree on whose cache entries they share
	// whenever they arrive.
	epoch uint64
	// stmt is the statement's context, whose cache a round's context uses;
	// nil in the statement's own.
	stmt *Context
	// shared caches materialized Shared subplans and join build sides.
	shared sharedCache
}

// AttachContext sets the Go context governing cancellation and deadlines
// for this query.
func (c *Context) AttachContext(ctx context.Context) { c.goCtx = ctx }

// Err returns context.Canceled / context.DeadlineExceeded once the query's
// context is done, nil otherwise. Nil-safe; operators call it at every
// morsel boundary.
func (c *Context) Err() error {
	if c == nil || c.goCtx == nil {
		return nil
	}
	return c.goCtx.Err()
}

// EnableStats arms per-operator telemetry for this query and returns the
// collector. It also ensures a memory accountant exists (with an effectively
// unlimited budget when none was configured) so PeakBytes reports the
// query's materialization high-water mark.
func (c *Context) EnableStats() *StatsCollector {
	if c.stats == nil {
		c.stats = newStatsCollector()
	}
	if c.mem == nil {
		c.mem = &memAccountant{limit: int64(^uint64(0) >> 1)}
	}
	return c.stats
}

// statsCollector returns the query's collector, nil when telemetry is
// disarmed. Nil-safe so plan-splitting helpers can call it with no context.
func (c *Context) statsCollector() *StatsCollector {
	if c == nil {
		return nil
	}
	return c.stats
}

// NewContext returns a Context with default parallelism.
func NewContext() *Context {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return &Context{
		Workers:  w,
		Bindings: map[string]*Materialized{},
	}
}

// workers returns the effective parallelism degree, clamped to >= 1, so
// operators never have to defend against zero or negative Workers values
// set by callers that bypass NewContext.
func (c *Context) workers() int {
	if c == nil || c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Operator is a physical operator.
//
// A batch from Next is borrowed until the operator's next Next or Close: an
// operator may write every output into the same buffers (types.Buffer). A
// consumer that keeps a batch longer keeps types.Retain of it, which copies
// only the reused parts; Materialized.Append does, so every materialising
// consumer does.
type Operator interface {
	// Schema returns the operator's output layout.
	Schema() types.Schema
	// Open prepares the operator for execution.
	Open(ctx *Context) error
	// Next returns the next output batch, borrowed, or nil when exhausted.
	Next() (*types.Batch, error)
	// Close releases resources. It is safe to call after a failed Open.
	Close() error
}

// Materialized is a fully computed relation.
type Materialized struct {
	Schema  types.Schema
	Batches []*types.Batch
	NumRows int
}

// Append adds a batch, retained: it may be borrowed.
func (m *Materialized) Append(b *types.Batch) {
	if b == nil || b.Len() == 0 {
		return
	}
	m.Batches = append(m.Batches, types.Retain(b))
	m.NumRows += b.Len()
}

// appendChunked adds b as views of at most types.BatchSize rows, the batch
// size downstream operators are written for.
func (m *Materialized) appendChunked(b *types.Batch) {
	for lo, n := 0, b.Len(); lo < n; lo += types.BatchSize {
		m.Append(b.Slice(lo, min(lo+types.BatchSize, n)))
	}
}

// AppendRow adds one row to a relation built by AppendRow alone, packing
// rows into batches of types.BatchSize.
func (m *Materialized) AppendRow(row []types.Value) {
	if n := len(m.Batches); n == 0 || m.Batches[n-1].Len() >= types.BatchSize {
		m.Batches = append(m.Batches, types.NewBatch(m.Schema))
	}
	m.Batches[len(m.Batches)-1].AppendRow(row)
	m.NumRows++
}

// Rows flattens the result into value rows (client/result use).
func (m *Materialized) Rows() [][]types.Value {
	out := make([][]types.Value, 0, m.NumRows)
	for _, b := range m.Batches {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
	return out
}

// SliceRows returns batches covering rows [lo, hi) of the materialized
// relation, slicing the boundary batches. hi <= 0 means to the end. The
// returned batches may alias m's storage.
func (m *Materialized) SliceRows(lo, hi int) []*types.Batch {
	if hi <= 0 || hi > m.NumRows {
		hi = m.NumRows
	}
	var out []*types.Batch
	base := 0
	for _, b := range m.Batches {
		n := b.Len()
		if base+n <= lo {
			base += n
			continue
		}
		if base >= hi {
			break
		}
		from, to := 0, n
		if lo > base {
			from = lo - base
		}
		if hi < base+n {
			to = hi - base
		}
		if from == 0 && to == n {
			out = append(out, b)
		} else {
			out = append(out, b.Slice(from, to))
		}
		base += n
	}
	return out
}

// buildHook lets tests inject physical operators for test-only plan nodes.
var buildHook func(plan.Node) (Operator, bool)

// Build translates a logical plan into a physical operator tree with
// telemetry disarmed.
func Build(p plan.Node) (Operator, error) { return buildWith(p, nil) }

// buildFor builds a plan for execution under ctx, wrapping operators with
// telemetry when the query's collector is armed.
func buildFor(p plan.Node, ctx *Context) (Operator, error) {
	return buildWith(p, ctx.statsCollector())
}

// buildWith translates a logical plan into a physical operator tree. With a
// nil collector the result is exactly the tree Build produced before the
// telemetry layer existed; with a collector every operator (Alias nodes are
// transparent) is wrapped in a statsOp keyed by its plan node.
func buildWith(p plan.Node, sc *StatsCollector) (Operator, error) {
	if buildHook != nil {
		if op, ok := buildHook(p); ok {
			return op, nil
		}
	}
	var op Operator
	var err error
	switch n := p.(type) {
	case *plan.Scan:
		op = newTableScan(n)
	case *plan.IndexScan:
		op = newIndexScan(n)
	case *plan.WorkingScan:
		op = newWorkingScan(n)
	case *plan.Values:
		op = newValuesOp(n)
	case *plan.Alias:
		return buildWith(n.Child, sc)
	case *plan.Shared:
		op = newSharedOp(n)
	case *plan.Filter:
		op, err = newFilterOp(n, sc)
	case *plan.Project:
		op, err = newProjectOp(n, sc)
	case *plan.Join:
		op, err = newJoinOp(n)
	case *plan.Aggregate:
		op = newAggOp(n)
	case *plan.Sort:
		op = newSortOp(n)
	case *plan.Limit:
		op, err = newLimitOp(n, sc)
	case *plan.Distinct:
		op, err = newDistinctOp(n, sc)
	case *plan.Union:
		op, err = newUnionOp(n, sc)
	case *plan.Iterate:
		op = newIterateOp(n)
	case *plan.RecursiveCTE:
		op = newRecursiveOp(n)
	case *plan.KMeans:
		op = newKMeansOp(n)
	case *plan.KMeansAssign:
		op = newKMeansAssignOp(n)
	case *plan.PageRank:
		op, err = newPageRankOp(n)
	case *plan.NaiveBayesTrain:
		op = newNBTrainOp(n)
	case *plan.NaiveBayesPredict:
		op = newNBPredictOp(n)
	default:
		return nil, fmt.Errorf("exec: no physical operator for %T", p)
	}
	if err != nil {
		return nil, err
	}
	if sc != nil {
		op = &statsOp{inner: op, node: p, sc: sc}
	}
	return op, nil
}

// Run builds, executes, and materializes a plan. A pipeline that streams
// past a join runs as morsels, since nothing else would run its probe in
// parallel; any other top-level pipeline is one part — the blocking operators
// inside it split their own inputs, and splitting a bare scan buys nothing.
func Run(p plan.Node, ctx *Context) (*Materialized, error) {
	if plan.StreamsPastJoin(p) {
		return materialize(partsOf(p, ctx), ctx)
	}
	return materialize([]plan.Node{p}, ctx)
}

// opLabel names an operator for error reporting (ResourceError.Operator,
// panic containment).
func opLabel(op Operator) string {
	switch o := op.(type) {
	case *statsOp:
		return opLabel(o.inner)
	case *scanOp:
		return o.label
	case *blockingOp:
		return o.label
	case *filterOp:
		return "filter"
	case *projectOp:
		return "project"
	case *joinOp:
		return "join"
	case *limitOp:
		return "limit"
	case *distinctOp:
		return o.label
	case *unionOp:
		return "union"
	}
	return fmt.Sprintf("%T", op)
}

// blockingOp is the shell of every operator that computes its whole result
// in Open and replays it from Next: aggregation, sort, the iteration
// constructs, shared subplans and the analytical operators differ only in
// their label, schema and compute function.
type blockingOp struct {
	label   string
	schema  types.Schema
	compute func(ctx *Context) (*Materialized, error)
	out     catalog.Batches
}

func (o *blockingOp) Schema() types.Schema { return o.schema }

func (o *blockingOp) Open(ctx *Context) error {
	mat, err := o.compute(ctx)
	o.out = nil
	if mat != nil {
		o.out = mat.Batches
	}
	return err
}

func (o *blockingOp) Next() (*types.Batch, error) {
	b, _ := o.out.Next()
	return b, nil
}

func (o *blockingOp) Close() error { return nil }
