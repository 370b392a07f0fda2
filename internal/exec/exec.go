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

// Context carries per-query execution state: everything that differs from
// one execution of a plan to the next. The plan itself is only read, so one
// plan runs under any number of contexts at once.
type Context struct {
	// Workers is the parallelism degree for morsel-parallel fragments.
	Workers int
	// Snapshot is the commit timestamp every table scan and index probe of
	// the statement reads at.
	Snapshot uint64
	// Args binds the plan's $N placeholders: Args[i] is $i+1.
	Args []types.Value
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

// Rows flattens the result into value rows, the embedded caller's form.
// The values sit in one slab, filled column by column, and each row is a
// three-index slice of it, so appending to one row never reaches the next;
// a caller that keeps a few rows of a large result keeps the whole slab, and
// should copy them.
func (m *Materialized) Rows() [][]types.Value {
	n := 0
	for _, b := range m.Batches {
		n += b.Len()
	}
	out := make([][]types.Value, n)
	if n == 0 {
		return out
	}
	width := len(m.Batches[0].Cols)
	slab := make([]types.Value, n*width)
	for r := range out {
		out[r] = slab[r*width : (r+1)*width : (r+1)*width]
	}
	base := 0
	for _, b := range m.Batches {
		for j, c := range b.Cols {
			pivotColumn(slab[base*width+j:], width, c, b.Len())
		}
		base += b.Len()
	}
	return out
}

// pivotColumn writes the first n values of c to dst[0], dst[stride], ...:
// what c.Value(i) returns, one typed loop per column type. The slab is
// zeroed, and the zero Value is what a non-NULL Unknown cell reads as.
func pivotColumn(dst []types.Value, stride int, c *types.Column, n int) {
	switch c.T {
	case types.Int64:
		for i, x := range c.Ints[:n] {
			dst[i*stride] = types.NewInt(x)
		}
	case types.Float64:
		for i, x := range c.Floats[:n] {
			dst[i*stride] = types.NewFloat(x)
		}
	case types.String:
		for i, x := range c.Strs[:n] {
			dst[i*stride] = types.NewString(x)
		}
	case types.Bool:
		for i, x := range c.Bools[:n] {
			dst[i*stride] = types.NewBool(x)
		}
	}
	if c.Nulls != nil {
		for i, null := range c.Nulls[:n] {
			if null {
				dst[i*stride] = types.NewNull(c.T)
			}
		}
	}
}

// SliceRows returns batches covering rows [lo, hi) of the materialized
// relation, slicing the boundary batches. hi < 0 means to the end. The
// returned batches may alias m's storage.
func (m *Materialized) SliceRows(lo, hi int) []*types.Batch {
	if hi < 0 || hi > m.NumRows {
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
var buildHook func(part) (Operator, bool)

// part is what a pipeline is driven as: a plan and the row range [lo, hi)
// its morsel leaf (plan.MorselLeaf) reads, hi < 0 reading to the end. The
// morsels of a pipeline are parts of one and the same plan.
type part struct {
	node   plan.Node
	lo, hi int
	// sel says that the part's consumer reads selections (types.Batch.Sel):
	// a Filter at its top lends its survivors as one instead of gathering
	// them. Every other consumer is handed dense batches.
	sel bool
}

// whole is the part that runs all of p.
func whole(p plan.Node) part { return part{node: p, hi: -1} }

// of is the part of n, the next stage down p's streaming spine, over p's
// range: the range travels down the spine to the one leaf. Its consumer is
// p's operator, which reads no selections.
func (p part) of(n plan.Node) part { return part{node: n, lo: p.lo, hi: p.hi} }

// selecting marks parts as driven into a consumer that reads selections.
func selecting(parts []part) []part {
	for i := range parts {
		parts[i].sel = true
	}
	return parts
}

// Build translates a logical plan into a physical operator tree with
// telemetry disarmed and no arguments bound.
func Build(p plan.Node) (Operator, error) { return buildWith(whole(p), &Context{}) }

// buildWith translates part p of a plan into a physical operator tree for
// execution under ctx: its expressions compile with ctx.Args bound. With
// telemetry disarmed the result is exactly the tree Build produced before
// the telemetry layer existed; armed, every operator (Alias nodes are
// transparent) is wrapped in a statsOp keyed by its plan node, which every
// part of a pipeline shares, so their counters meet in one record.
func buildWith(p part, ctx *Context) (Operator, error) {
	if buildHook != nil {
		if op, ok := buildHook(p); ok {
			return op, nil
		}
	}
	var op Operator
	var err error
	switch n := p.node.(type) {
	case *plan.Scan:
		op = newTableScan(n, p.lo, p.hi)
	case *plan.IndexScan:
		op = newIndexScan(n)
	case *plan.WorkingScan:
		op = newWorkingScan(n, p.lo, p.hi)
	case *plan.Values:
		op = newValuesOp(n)
	case *plan.Alias:
		p.node = n.Child
		return buildWith(p, ctx)
	case *plan.Shared:
		op = newSharedOp(n)
	case *plan.Filter:
		op, err = newFilterOp(n, p.of(n.Child), ctx, p.sel)
	case *plan.Project:
		op, err = newProjectOp(n, p.of(n.Child), ctx)
	case *plan.Join:
		op, err = newJoinOp(n, p, ctx)
	case *plan.Aggregate:
		op = newAggOp(n)
	case *plan.Sort:
		op = newSortOp(n)
	case *plan.Limit:
		op, err = newLimitOp(n, ctx)
	case *plan.Distinct:
		op, err = newDistinctOp(n, ctx)
	case *plan.Union:
		op, err = newUnionOp(n, ctx)
	case *plan.Iterate:
		op = newIterateOp(n)
	case *plan.RecursiveCTE:
		op = newRecursiveOp(n)
	case *plan.KMeans:
		op = newKMeansOp(n)
	case *plan.KMeansAssign:
		op = newKMeansAssignOp(n)
	case *plan.PageRank:
		op, err = newPageRankOp(n, ctx)
	case *plan.NaiveBayesTrain:
		op = newNBTrainOp(n)
	case *plan.NaiveBayesPredict:
		op = newNBPredictOp(n)
	default:
		return nil, fmt.Errorf("exec: no physical operator for %T", p.node)
	}
	if err != nil {
		return nil, err
	}
	if ctx.stats != nil {
		op = &statsOp{inner: op, node: p.node, sc: ctx.stats}
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
	return materialize([]part{whole(p)}, ctx)
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
	return o.out.Next(), nil
}

func (o *blockingOp) Close() error { return nil }
