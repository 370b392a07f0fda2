package exec

import (
	"maps"
	"sync"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/morsel"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// ---------------------------------------------------------------------------
// Parallel-pipeline driver
//
// Morsel-style parallelism shared by every blocking operator: a pipeline
// rooted at a base-table Scan (or a bound working table) runs as row-range
// morsels of that leaf (partsOf), all of the same plan, on the engine's one
// worker pool (morsel.For), each pulled to exhaustion into a per-part sink
// (drive).
// Results are indexed by part, so output order is deterministic regardless
// of scheduling.
// ---------------------------------------------------------------------------

// minRowsPerWorker is the smallest morsel worth a goroutine; below twice
// this size the serial path wins.
const minRowsPerWorker = 8192

// splitParallel partitions a pipeline rooted at a base-table Scan or a
// WorkingScan into row-range morsels of its leaf, one part each. It returns
// nil when the pipeline is not parallelizable (non-scan leaves, a small
// table, or a clamp down to a single part), in which case callers take the
// cheaper serial path. ctx supplies working-table bindings.
func splitParallel(p plan.Node, parts int, ctx *Context) []part {
	if parts <= 1 {
		return nil
	}
	var rows int
	switch leaf := plan.MorselLeaf(p).(type) {
	case *plan.Scan:
		rows = leaf.Rel.PhysicalRows()
	case *plan.WorkingScan:
		mat, ok := ctx.Bindings[leaf.Name]
		if !ok {
			return nil
		}
		rows = mat.NumRows
	default:
		return nil
	}
	var out []part
	for _, r := range morsel.SplitPipeline(rows, parts, minRowsPerWorker) {
		out = append(out, part{node: p, lo: r[0], hi: r[1]})
	}
	return out
}

// partsOf returns p's row-range morsels, or all of p as the only part when
// it does not split.
func partsOf(p plan.Node, ctx *Context) []part {
	if parts := splitParallel(p, ctx.workers(), ctx); len(parts) > 1 {
		return parts
	}
	return []part{whole(p)}
}

// sink consumes the batches of one part of a driven pipeline. A batch
// handed to consume is borrowed until consume returns; a sink that keeps it
// keeps types.Retain of it. A sink charges what it retains against the query
// budget; whoever later drops that state releases it.
type sink interface {
	consume(b *types.Batch) error
}

// drive is the executor's one pull loop; every place that runs a pipeline
// to exhaustion is a sink on it. Each part is built for ctx, opened, pulled
// until exhausted — firing the fault point (when named) and checking
// cancellation before every Next — and closed exactly once, on the worker
// pool and under its panic containment; one part is simply the serial case.
// Sinks come back in part order, which for morsels is serial scan order.
func drive[S sink](ctx *Context, parts []part, fault string, newSink func(part int, op Operator) (S, error)) ([]S, error) {
	sinks := make([]S, len(parts))
	err := morsel.For(ctx.goCtx, "parallel-worker", ctx.workers(), len(parts), func(_, i int) (err error) {
		op, err := buildWith(parts[i], ctx)
		if err != nil {
			return err
		}
		defer morsel.Contain(opLabel(op), &err)
		defer func() {
			if cerr := op.Close(); err == nil {
				err = cerr
			}
		}()
		if err := op.Open(ctx); err != nil {
			return err
		}
		if sinks[i], err = newSink(i, op); err != nil {
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
func materialize(parts []part, ctx *Context) (*Materialized, error) {
	sinks, err := drive(ctx, parts, "", func(_ int, op Operator) (*matSink, error) {
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

// sharedKey identifies one cached materialization: the relation of a Shared
// subplan, or a join's blocking side — keyed by that side's plan node, which
// the morsels of a pipeline all run, and by how the join indexes it — plus
// the epoch of the loop round it belongs to (0 for loop-invariant
// subplans).
type sharedKey struct {
	node  plan.Node
	keys  string // join: build key columns and types; "" for a Shared relation
	epoch uint64
}

// sharedCache stores what a query materializes once and reads from many
// places, per statement. Each entry computes at most once; the per-entry
// sync.Once keeps nested entries (a CTE referencing another CTE, a build
// side that joins) from deadlocking on the map lock.
type sharedCache struct {
	mu      sync.Mutex
	entries map[sharedKey]*sharedEntry
	rounds  uint64 // loop rounds started so far; the latest one's epoch
}

type sharedEntry struct {
	once sync.Once
	val  any // *Materialized or *joinTable
	err  error
	held int64 // bytes booked for val, returned when its round ends
}

func (c *Context) cache() *sharedCache {
	if c.stmt != nil {
		return &c.stmt.shared
	}
	return &c.shared
}

// cached returns what compute produces for key, computing it on first use:
// once per statement, or once per loop round when scoped (the subplan reads a
// working table bound outside it). compute reports the bytes it booked for
// the value; the cache returns them to the budget when the round ends.
// Unscoped entries live as long as the statement's Context.
func (c *Context) cached(key sharedKey, scoped bool, compute func() (val any, held int64, err error)) (any, error) {
	if scoped {
		key.epoch = c.epoch
	}
	sc := c.cache()
	sc.mu.Lock()
	if sc.entries == nil {
		sc.entries = map[sharedKey]*sharedEntry{}
	}
	e, ok := sc.entries[key]
	if !ok {
		e = &sharedEntry{}
		sc.entries[key] = e
	}
	sc.mu.Unlock()
	e.once.Do(func() { e.val, e.held, e.err = compute() })
	return e.val, e.err
}

// round returns the context one round of a loop runs under: c's settings,
// budget, telemetry and cache, name bound to working on top of c's bindings,
// and an epoch of its own. c is not touched — whatever else runs under it,
// such as the sibling parts of a pipeline whose blocking side is this loop,
// sees neither its bindings nor its epoch move.
func (c *Context) round(name string, working *Materialized) *Context {
	rc := &Context{Workers: c.Workers, Snapshot: c.Snapshot, Args: c.Args, OnIndexProbe: c.OnIndexProbe,
		goCtx: c.goCtx, mem: c.mem, stats: c.stats,
		Bindings: make(map[string]*Materialized, len(c.Bindings)+1), stmt: c.stmt}
	if rc.stmt == nil {
		rc.stmt = c
	}
	maps.Copy(rc.Bindings, c.Bindings)
	rc.Bindings[name] = working
	sc := rc.cache()
	sc.mu.Lock()
	sc.rounds++
	rc.epoch = sc.rounds
	sc.mu.Unlock()
	return rc
}

// endRound drops what the round cached about its working tables — Shared
// relations and join build sides alike; nothing can find it again — and
// returns its bytes to the budget. Every pipeline the round ran has been
// joined by now, so no entry of it is still being computed.
func (c *Context) endRound() {
	sc := c.cache()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for key, e := range sc.entries {
		if key.epoch == c.epoch {
			c.release(e.held)
			delete(sc.entries, key)
		}
	}
}

// newSharedOp serves a Shared plan node from the context cache, computing
// it on first use within the relevant epoch.
func newSharedOp(n *plan.Shared) *blockingOp {
	return &blockingOp{label: "shared", schema: n.Schema(), compute: func(ctx *Context) (*Materialized, error) {
		v, err := ctx.cached(sharedKey{node: n}, !n.Invariant, func() (any, int64, error) {
			mat, err := Run(n.Child, ctx)
			return mat, matBytes(mat), err
		})
		mat, _ := v.(*Materialized)
		return mat, err
	}}
}
