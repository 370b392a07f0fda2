package exec

import (
	"sync"
	"sync/atomic"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// ---------------------------------------------------------------------------
// Parallel-pipeline driver
//
// Morsel-style parallelism shared by every blocking operator: a pipeline
// rooted at a base-table Scan (or a bound working table) is cloned into
// row-range morsels (partsOf) and the clones run on a bounded worker pool
// (runParts), each pulled to exhaustion into a per-part sink (drive).
// Results are indexed by part, so output order is deterministic regardless
// of scheduling.
// ---------------------------------------------------------------------------

// minRowsPerWorker is the smallest morsel worth a goroutine; below twice
// this size the serial path wins.
const minRowsPerWorker = 8192

// splitParallel partitions a pipeline rooted at a base-table Scan or a
// WorkingScan into row-range morsels, one plan clone per part. It returns
// nil when the pipeline is not parallelizable (non-scan leaves, a small
// table, or a clamp down to a single part), in which case callers take the
// cheaper serial path. ctx supplies working-table bindings; it may be nil
// when the caller has none.
func splitParallel(p plan.Node, parts int, ctx *Context) []plan.Node {
	if parts <= 1 {
		return nil
	}
	var rows int
	switch leaf := plan.MorselLeaf(p).(type) {
	case *plan.Scan:
		rows = leaf.Rel.PhysicalRows()
	case *plan.WorkingScan:
		if ctx == nil {
			return nil
		}
		mat, ok := ctx.Bindings[leaf.Name]
		if !ok {
			return nil
		}
		rows = mat.NumRows
	default:
		return nil
	}
	split := plan.SplitPipeline(p, rows, parts, minRowsPerWorker)
	if sc := ctx.statsCollector(); sc != nil {
		// Register each clone's spine so per-morsel wrappers merge their
		// counters into the original pipeline's records.
		for _, part := range split {
			sc.aliasPipeline(p, part)
		}
	}
	return split
}

// runParts executes fn(i) for i in [0, n) on at most ctx.workers()
// goroutines. It is the parallel executor boundary: each part checks for
// cancellation before it starts and runs under panic containment, so one
// worker's panic becomes an *InternalError instead of killing the process.
// Every part runs (or observes cancellation) regardless of failures
// elsewhere; the lowest-indexed error is returned so error reporting is
// deterministic.
func runParts(ctx *Context, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	call := func(i int) (err error) {
		defer containPanic("parallel-worker", &err)
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	}
	workers := ctx.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = call(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// partsOf returns p's row-range morsels, or p itself as the only part when
// it does not split.
func partsOf(p plan.Node, ctx *Context) []plan.Node {
	if parts := splitParallel(p, ctx.workers(), ctx); len(parts) > 1 {
		return parts
	}
	return []plan.Node{p}
}

// sink consumes the batches of one part of a driven pipeline. A sink
// charges what it retains against the query budget; whoever later drops
// that state releases it.
type sink interface {
	consume(b *types.Batch) error
}

// drive is the executor's one pull loop; every place that runs a pipeline
// to exhaustion is a sink on it. Each part is built for ctx, opened, pulled
// until exhausted — firing the fault point (when named) and checking
// cancellation before every Next — and closed exactly once, on the worker
// pool and under its panic containment; one part is simply the serial case.
// Sinks come back in part order, which for morsels is serial scan order.
func drive[S sink](ctx *Context, parts []plan.Node, fault string, newSink func(op Operator) (S, error)) ([]S, error) {
	sinks := make([]S, len(parts))
	err := runParts(ctx, len(parts), func(i int) (err error) {
		op, err := buildFor(parts[i], ctx)
		if err != nil {
			return err
		}
		defer containPanic(opLabel(op), &err)
		defer func() {
			if cerr := op.Close(); err == nil {
				err = cerr
			}
		}()
		if err := op.Open(ctx); err != nil {
			return err
		}
		if sinks[i], err = newSink(op); err != nil {
			return err
		}
		for {
			if fault != "" {
				if err := faultinject.Fire(fault); err != nil {
					return err
				}
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			b, err := op.Next()
			if err != nil || b == nil {
				return err
			}
			if err := sinks[i].consume(b); err != nil {
				return err
			}
		}
	})
	return sinks, err
}

// matSink retains every batch, charged under the producing operator's
// label.
type matSink struct {
	ctx   *Context
	label string
	mat   Materialized
}

func (s *matSink) consume(b *types.Batch) error {
	if err := s.ctx.charge(s.label, batchBytes(b)); err != nil {
		return err
	}
	s.mat.Append(b)
	return nil
}

// materialize drives parts into one relation, batches in part order.
func materialize(parts []plan.Node, ctx *Context) (*Materialized, error) {
	sinks, err := drive(ctx, parts, "", func(op Operator) (*matSink, error) {
		return &matSink{ctx: ctx, label: opLabel(op), mat: Materialized{Schema: op.Schema()}}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &sinks[0].mat
	for _, s := range sinks[1:] {
		for _, b := range s.mat.Batches {
			out.Append(b)
		}
	}
	return out, nil
}

// sharedKey identifies one cached materialization: the plan node plus the
// execution epoch (0 for loop-invariant subplans).
type sharedKey struct {
	node  *plan.Shared
	epoch uint64
}

// sharedCache stores materialized Shared subplans per Context. Each entry
// computes at most once; the per-entry sync.Once keeps nested Shared
// subplans (a CTE referencing another CTE) from deadlocking on the map
// lock.
type sharedCache struct {
	mu      sync.Mutex
	entries map[sharedKey]*sharedEntry
}

type sharedEntry struct {
	once sync.Once
	mat  *Materialized
	err  error
}

// newSharedOp serves a Shared plan node from the context cache, computing
// it on first use within the relevant epoch.
func newSharedOp(n *plan.Shared) *blockingOp {
	return &blockingOp{label: "shared", schema: n.Schema(), compute: func(ctx *Context) (*Materialized, error) {
		key := sharedKey{node: n}
		if !n.Invariant {
			key.epoch = ctx.epoch
		}
		c := &ctx.shared
		c.mu.Lock()
		if c.entries == nil {
			c.entries = map[sharedKey]*sharedEntry{}
		}
		e, ok := c.entries[key]
		if !ok {
			e = &sharedEntry{}
			c.entries[key] = e
		}
		c.mu.Unlock()
		e.once.Do(func() {
			e.mat, e.err = Run(n.Child, ctx)
		})
		return e.mat, e.err
	}}
}
