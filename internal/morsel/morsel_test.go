package morsel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"lambdadb/internal/types"
)

var workerCounts = []int{1, 2, 8}

// TestForRunsEveryIndexOnce: more items than workers, each run exactly
// once, on a worker slot in range.
func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range workerCounts {
		runs := make([]atomic.Int32, n)
		err := For(context.Background(), "test", workers, n, func(w, i int) error {
			if w < 0 || w >= Slots(workers, n) {
				return fmt.Errorf("worker slot %d out of range", w)
			}
			runs[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForLowestIndexedError: every item runs even after a failure, and the
// lowest-indexed error is returned whatever the scheduling.
func TestForLowestIndexedError(t *testing.T) {
	const n = 50
	for _, workers := range workerCounts {
		ran := make([]atomic.Bool, n)
		err := For(context.Background(), "test", workers, n, func(_, i int) error {
			ran[i].Store(true)
			if i == 7 || i == 23 {
				return fmt.Errorf("part %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "part 7 failed" {
			t.Fatalf("workers=%d: want lowest-indexed error 'part 7 failed', got %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("workers=%d: part %d never ran", workers, i)
			}
		}
	}
}

func TestForPanicBecomesInternalError(t *testing.T) {
	const n = 20
	for _, workers := range workerCounts {
		var ran atomic.Int32
		err := For(context.Background(), "kmeans", workers, n, func(_, i int) error {
			ran.Add(1)
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		var ie *InternalError
		if !errors.As(err, &ie) || ie.Op != "kmeans" || ie.Panic != "boom" || len(ie.Stack) == 0 {
			t.Fatalf("workers=%d: want *InternalError{Op: kmeans}, got %v", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: %d of %d items ran", workers, got, n)
		}
	}
}

// TestForStopsAfterCancel: an item that cancels the context is the last one
// whose body runs on a single worker; every later item reports the
// cancellation.
func TestForStopsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last atomic.Int32
	err := For(ctx, "test", 1, 10, func(_, i int) error {
		last.Store(int32(i))
		if i == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := last.Load(); got != 4 {
		t.Errorf("last body to run = %d, want 4", got)
	}
}

// TestForWorkerSlotsExclusive: no two bodies run at once on one worker slot,
// so per-worker state needs no lock (run under -race).
func TestForWorkerSlotsExclusive(t *testing.T) {
	for _, workers := range workerCounts {
		busy := make([]atomic.Bool, Slots(workers, 500))
		state := make([]int, len(busy))
		err := For(context.Background(), "test", workers, 500, func(w, i int) error {
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("worker slot %d entered twice", w)
			}
			state[w] += i
			busy[w].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestGridCoversRows(t *testing.T) {
	const b = types.BatchSize
	for _, rows := range []int{0, 1, b - 1, b, b + 1, 10 * b, 10_000} {
		next := 0
		for m := range Count(rows) {
			lo, hi := Range(m, rows)
			if lo != next || hi <= lo || hi-lo > b {
				t.Fatalf("rows=%d: morsel %d is [%d, %d), want to start at %d", rows, m, lo, hi, next)
			}
			next = hi
		}
		if next != rows {
			t.Errorf("rows=%d: grid covers [0, %d)", rows, next)
		}
	}
}
