package exec

import (
	"fmt"
	"time"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
)

// roundCheck is the gate every iterative construct — ITERATE, recursive CTE,
// k-Means, PageRank — passes once per round: a cancelled or timed-out query
// stops before its next round.
func (c *Context) roundCheck() error {
	if err := c.Err(); err != nil {
		return err
	}
	return faultinject.Fire("exec.iterate.round")
}

// recordRound adds one round to node's telemetry; a no-op when stats are
// disarmed.
func (c *Context) recordRound(node plan.Node, round int, rows int64, delta float64, start time.Time) {
	c.stats.AddIteration(node, IterationStat{Round: round, Rows: rows, Delta: delta,
		Nanos: time.Since(start).Nanoseconds()})
}

// kernelRound is the per-round hook exec installs in an analytics kernel:
// it records the round (rows maps the kernel's delta to a working-set size)
// and passes the kernel through roundCheck.
func (c *Context) kernelRound(node plan.Node, rows func(delta float64) int64) func(int, float64) error {
	last := time.Now()
	return func(round int, delta float64) error {
		c.recordRound(node, round, rows(delta), delta, last)
		last = time.Now()
		return c.roundCheck()
	}
}

// runRounds is the round loop of the plan-level iteration constructs. Each
// round passes roundCheck and the maxDepth bound and calls step under a
// context of its own (round) that binds the current working table under name
// and scopes what the round caches about it; c is left as it was, so a failed
// or cancelled loop leaves it reusable. A non-nil next replaces the working
// table and is recorded as the round's result; done ends the loop. what names
// the construct in the runaway-loop error.
func (c *Context) runRounds(node plan.Node, name, what string, maxDepth int, working *Materialized,
	step func(rc *Context, working *Materialized) (next *Materialized, delta float64, done bool, err error)) (*Materialized, error) {
	for round := 1; ; round++ {
		if err := c.roundCheck(); err != nil {
			return nil, err
		}
		if round > maxDepth {
			return nil, fmt.Errorf("%s: exceeded %d iterations (possible infinite loop)", what, maxDepth)
		}
		start := time.Now()
		rc := c.round(name, working)
		next, delta, done, err := step(rc, working)
		rc.endRound()
		if err != nil {
			return nil, err
		}
		if next != nil {
			c.recordRound(node, round, int64(next.NumRows), delta, start)
			working = next
		}
		if done {
			return working, nil
		}
	}
}

// newIterateOp implements the paper's non-appending iteration (Section 5.1):
//
//	working := Init
//	while Stop(working) yields no rows:
//	    working := Step(working)
//	return working
//
// Only the current (and the just-computed next) working table are ever
// materialized — the memory advantage over recursive CTEs that Section 5.1
// argues for. Step and Stop are logical subplans re-instantiated each
// iteration so the optimizer's plan is reused while operator state is not.
//
// The iteration context (including ctx.Workers) is passed through to every
// Init/Step/Stop execution, and working tables bound here are splittable
// into row-range morsels (WorkingScan Lo/Hi), so joins, sorts, and
// aggregates inside the loop body run morsel-parallel each round.
func newIterateOp(n *plan.Iterate) *blockingOp {
	return &blockingOp{label: "iterate", schema: n.Schema(), compute: func(ctx *Context) (*Materialized, error) {
		init, err := Run(n.Init, ctx)
		if err != nil {
			return nil, fmt.Errorf("iterate init: %w", err)
		}
		return ctx.runRounds(n, "iterate", "iterate", n.MaxDepth, init,
			func(ctx *Context, working *Materialized) (*Materialized, float64, bool, error) {
				stop, err := Run(n.Stop, ctx)
				if err != nil {
					return nil, 0, false, fmt.Errorf("iterate stop: %w", err)
				}
				if stop.NumRows > 0 {
					return nil, 0, true, nil
				}
				next, err := Run(n.Step, ctx)
				if err != nil {
					return nil, 0, false, fmt.Errorf("iterate step: %w", err)
				}
				// Non-appending: the previous working table is dropped here;
				// at most two iterations' worth of tuples are alive at once.
				// Return its bytes to the memory budget so long loops with
				// bounded working sets never trip the limit.
				ctx.release(matBytes(working))
				return next, float64(next.NumRows - working.NumRows), false, nil
			})
	}}
}

// newRecursiveOp implements SQL:1999 recursive CTEs with appending
// semantics: the result accumulates every iteration's tuples. UNION (without
// ALL) deduplicates globally and reaches a fixpoint; UNION ALL stops when
// the recursive term produces no rows.
func newRecursiveOp(n *plan.RecursiveCTE) *blockingOp {
	return &blockingOp{label: "recursive-cte", schema: n.Schema(), compute: func(ctx *Context) (*Materialized, error) {
		what := "recursive CTE " + n.Name
		init, err := Run(n.Init, ctx)
		if err != nil {
			return nil, fmt.Errorf("%s init: %w", what, err)
		}
		acc := &Materialized{Schema: init.Schema}
		var seen *keyTable
		if !n.All {
			seen = newRowTable(ctx, "recursive-cte", init.Schema)
			defer seen.release()
		}
		// fresh appends src's not-yet-seen rows to acc and returns them as
		// the next working table.
		fresh := func(src *Materialized) (*Materialized, error) {
			next := &Materialized{Schema: init.Schema}
			for _, b := range src.Batches {
				if seen != nil {
					var err error
					if b, err = seen.fresh(b); err != nil {
						return nil, err
					}
				}
				acc.Append(b)
				next.Append(b)
			}
			return next, nil
		}
		working, err := fresh(init)
		if err != nil {
			return nil, err
		}
		if working.NumRows == 0 {
			return acc, nil
		}
		if _, err := ctx.runRounds(n, n.Name, what, n.MaxDepth, working,
			func(ctx *Context, _ *Materialized) (*Materialized, float64, bool, error) {
				delta, err := Run(n.Rec, ctx)
				if err != nil {
					return nil, 0, false, fmt.Errorf("%s: %w", what, err)
				}
				next, err := fresh(delta)
				if err != nil {
					return nil, 0, false, err
				}
				return next, float64(next.NumRows), next.NumRows == 0, nil
			}); err != nil {
			return nil, err
		}
		return acc, nil
	}}
}
