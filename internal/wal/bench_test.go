package wal_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"lambdadb/internal/engine"
)

// TestGroupCommitBench measures the group-commit batching effect: the same
// number of durable single-row commits issued serially (one fsync each)
// versus from concurrent committers (fsyncs shared across whoever is
// parked on the flusher). It asserts the headline claim — under
// concurrency the log issues strictly less than one fsync per commit — and
// logs the numbers. The recorded baseline is lambdabench's per-layer
// wal.fsyncs_per_commit (cmd/lambdabench/BASELINE.json).
//
// Gated behind LAMBDADB_WAL_BENCH=1 (run via `make bench-wal`) because it
// is a timing benchmark, not a correctness test.
func TestGroupCommitBench(t *testing.T) {
	if os.Getenv("LAMBDADB_WAL_BENCH") != "1" {
		t.Skip("set LAMBDADB_WAL_BENCH=1 (make bench-wal) to run the group-commit benchmark")
	}

	const committers = 16
	const perCommitter = 200
	const total = committers * perCommitter

	// Serial baseline: one committer, so every commit pays its own fsync
	// (the flusher has nothing to batch).
	serialDB := openBenchDB(t)
	serialStart := time.Now()
	runCommits(t, serialDB, 1, total)
	serialElapsed := time.Since(serialStart)
	serialFsyncs := serialDB.Metrics().WalFsyncs.Load()
	serialAppends := serialDB.Metrics().WalAppends.Load()
	serialDB.Close()

	// Concurrent: committers overlap, so flushes carry whole batches.
	concDB := openBenchDB(t)
	concStart := time.Now()
	runCommits(t, concDB, committers, perCommitter)
	concElapsed := time.Since(concStart)
	concFsyncs := concDB.Metrics().WalFsyncs.Load()
	concAppends := concDB.Metrics().WalAppends.Load()
	concDB.Close()

	fsyncsPerCommit := float64(concFsyncs) / float64(total)
	t.Logf("serial: %d commits, %d appends, %d fsyncs, %.0f commits/s", total, serialAppends, serialFsyncs, float64(total)/serialElapsed.Seconds())
	t.Logf("concurrent (%d committers): %d commits, %d fsyncs (%.3f fsyncs/commit, %.1f appends/fsync), %.0f commits/s",
		committers, total, concFsyncs, fsyncsPerCommit, float64(concAppends)/float64(concFsyncs), float64(total)/concElapsed.Seconds())

	if fsyncsPerCommit >= 1 {
		t.Errorf("group commit ineffective: %.3f fsyncs per commit under %d committers, want < 1",
			fsyncsPerCommit, committers)
	}
}

func openBenchDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE bench (id BIGINT)")
	return db
}

func runCommits(t *testing.T, db *engine.DB, workers, each int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO bench VALUES (%d)", w*each+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
