package engine

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"lambdadb/internal/types"
)

// TestPreparedBench measures the point-query latency win from the prepared
// statement / plan-cache path versus re-lexing, re-parsing, and re-planning
// every statement, and logs the numbers (the recorded baseline is
// lambdabench's per-layer plancache.adhoc_miss_read_us vs
// engine.point_read_us in cmd/lambdabench/BASELINE.json). Three variants over
// the same indexed point query:
//
//   - unprepared: plan cache disabled; every execution pays lex+parse+plan.
//   - adhoc_cached: plan cache on, identical text re-submitted; the hit path
//     skips the front end entirely.
//   - prepared: PREPARE once, then EXECUTE through the session API.
//
// It asserts the headline claim — the cached paths are at least 2x faster
// than the unprepared path — and records the front end's share of statement
// time from the stage histograms to show where the win comes from.
//
// Gated behind LAMBDADB_PREPARED_BENCH=1 (run via `make bench-prepared`)
// because it is a timing benchmark, not a correctness test.
func TestPreparedBench(t *testing.T) {
	if os.Getenv("LAMBDADB_PREPARED_BENCH") != "1" {
		t.Skip("set LAMBDADB_PREPARED_BENCH=1 (make bench-prepared) to run the prepared-statement benchmark")
	}

	const rows = 20000
	const warmup = 200
	const iters = 3000

	setup := func(opts ...Option) *DB {
		db := Open(opts...)
		db.MustExec(`CREATE TABLE pts (id BIGINT, x DOUBLE, tag VARCHAR)`)
		var sb strings.Builder
		for i := 0; i < rows; i += 1000 {
			sb.Reset()
			sb.WriteString("INSERT INTO pts VALUES ")
			for j := i; j < i+1000; j++ {
				if j > i {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d.5, 'tag%d')", j, j, j%7)
			}
			db.MustExec(sb.String())
		}
		db.MustExec(`CREATE INDEX pts_id ON pts (id)`)
		db.MustExec(`ANALYZE`)
		return db
	}

	ctx := context.Background()
	const query = `SELECT x FROM pts WHERE id = 12345`

	timeLoop := func(n int, f func()) (meanNs float64) {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}

	// Unprepared: plan cache off, so ExecContext pays the whole front end
	// on every call.
	coldDB := setup(WithPlanCacheSize(0))
	coldSess := coldDB.NewSession()
	run := func(s *Session, sql string) {
		res, err := s.ExecContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].F != 12345.5 {
			t.Fatalf("rows = %+v", res.Rows)
		}
	}
	timeLoop(warmup, func() { run(coldSess, query) })
	unpreparedNs := timeLoop(iters, func() { run(coldSess, query) })
	coldStages := coldDB.Metrics().Hist()
	coldParsePlan := coldStages.StageParsePlan.Snapshot()
	coldExec := coldStages.StageExec.Snapshot()
	coldSess.Close()
	coldShare := share(coldParsePlan.Sum, coldExec.Sum)

	// Ad-hoc cached: same text, cache on; after the first miss every
	// execution is a hit that skips lex/parse/plan.
	adhocDB := setup()
	adhocSess := adhocDB.NewSession()
	timeLoop(warmup, func() { run(adhocSess, query) })
	adhocNs := timeLoop(iters, func() { run(adhocSess, query) })
	adhocHits := adhocDB.Metrics().PlanCacheHits.Load()
	adhocMisses := adhocDB.Metrics().PlanCacheMisses.Load()
	adhocStages := adhocDB.Metrics().Hist()
	adhocShare := share(adhocStages.StageParsePlan.Snapshot().Sum, adhocStages.StageExec.Snapshot().Sum)
	adhocSess.Close()

	// Prepared: parse once, bind per execution.
	prepDB := setup()
	prepSess := prepDB.NewSession()
	if _, err := prepSess.ExecContext(ctx, `PREPARE p AS SELECT x FROM pts WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	arg := []types.Value{types.NewInt(12345)}
	runPrep := func() {
		res, err := prepSess.ExecutePrepared(ctx, "p", arg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].F != 12345.5 {
			t.Fatalf("rows = %+v", res.Rows)
		}
	}
	timeLoop(warmup, runPrep)
	preparedNs := timeLoop(iters, runPrep)
	prepHits := prepDB.Metrics().PlanCacheHits.Load()
	prepSess.Close()

	t.Logf("unprepared   %8.0f ns/op  (front end %4.1f%% of stmt time)", unpreparedNs, 100*coldShare)
	t.Logf("adhoc cached %8.0f ns/op  (%.1fx; hits=%d misses=%d, front end %4.1f%%)",
		adhocNs, unpreparedNs/adhocNs, adhocHits, adhocMisses, 100*adhocShare)
	t.Logf("prepared     %8.0f ns/op  (%.1fx; hits=%d)", preparedNs, unpreparedNs/preparedNs, prepHits)

	if unpreparedNs < 2*preparedNs {
		t.Errorf("prepared path is only %.2fx faster than unprepared; want >= 2x", unpreparedNs/preparedNs)
	}
	if unpreparedNs < 2*adhocNs {
		t.Errorf("ad-hoc cached path is only %.2fx faster than unprepared; want >= 2x", unpreparedNs/adhocNs)
	}
	if int(adhocHits) < iters {
		t.Errorf("ad-hoc cache hits = %d, want >= %d", adhocHits, iters)
	}
}

// share returns a/(a+b), 0 when empty.
func share(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
