// Package morsel is the engine's one worker pool and the one place that
// decides how rows are cut and who runs them (HyPer's morsel-driven
// parallelism). The executor runs its pipeline parts on it, and the
// analytical kernels run their fixed grid of morsels on it. Every body runs
// under the pool's panic containment and cancellation check.
package morsel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lambdadb/internal/types"
)

// InternalError wraps a panic recovered at a worker boundary: the query
// fails, the process survives. The stack is captured at the panic site for
// diagnosis.
type InternalError struct {
	// Op names the operator or boundary that recovered the panic.
	Op string
	// Panic is the recovered value.
	Panic any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in %s operator: %v", e.Op, e.Panic)
}

// Contain converts a panic in the calling function into an *InternalError
// assigned to *errp. A panic that is already an *InternalError (a contained
// panic crossing a second boundary) passes through unchanged. Use as:
// defer morsel.Contain("sort", &err).
func Contain(op string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if ie, ok := r.(*InternalError); ok {
		*errp = ie
		return
	}
	*errp = &InternalError{Op: op, Panic: r, Stack: debug.Stack()}
}

// Slots is how many workers For runs for n items: workers clamped to
// [1, n]. A caller that keeps per-worker state sizes it by Slots.
func Slots(workers, n int) int {
	return max(1, min(workers, n))
}

// For runs body(worker, i) for every i in [0, n) on Slots(workers, n)
// workers, one of them the caller's goroutine. Items are handed out by an
// atomic counter, and worker is the slot in [0, Slots(workers, n)) running
// the body: no two bodies run at once on the same slot, so per-worker state
// needs no lock. Before each body, ctx (nil: no cancellation) is checked;
// each body runs under panic containment, a panic becoming an
// *InternalError naming label. Every item runs, or observes cancellation,
// whatever fails elsewhere, and the lowest-indexed error is returned, so
// error reporting does not depend on scheduling.
func For(ctx context.Context, label string, workers, n int, body func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	call := func(w, i int) (err error) {
		defer Contain(label, &err)
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return body(w, i)
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = call(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < Slots(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// The kernel grid: the analytical kernels cut their rows into morsels of
// types.BatchSize rows, whatever the worker count, keep one partial per
// morsel and merge the partials in morsel order, so their arithmetic — and
// every result — is the same at any worker count.

// Count is the number of morsels in a grid of rows rows.
func Count(rows int) int { return (rows + types.BatchSize - 1) / types.BatchSize }

// Range is the row range [lo, hi) of morsel m in a grid of rows rows.
func Range(m, rows int) (lo, hi int) {
	lo = m * types.BatchSize
	return lo, min(lo+types.BatchSize, rows)
}

// SplitPipeline divides the rows [0, rows) of a splittable pipeline's leaf
// into at most parts ranges [lo, hi), one per worker. It returns nil when
// the input is too small to be worth splitting or when the clamp leaves a
// single part (callers then take the cheaper serial path).
func SplitPipeline(rows, parts, minRowsPerPart int) [][2]int {
	if parts <= 1 || rows < 2*minRowsPerPart {
		return nil
	}
	if parts > rows/minRowsPerPart {
		parts = rows / minRowsPerPart
	}
	if parts <= 1 {
		return nil
	}
	out := make([][2]int, 0, parts)
	chunk := (rows + parts - 1) / parts
	for lo := 0; lo < rows; lo += chunk {
		out = append(out, [2]int{lo, min(lo+chunk, rows)})
	}
	return out
}
