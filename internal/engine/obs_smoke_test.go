package engine

import (
	"os"
	"sort"
	"testing"
	"time"

	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// TestObsOverheadSmoke asserts the ARMED histogram path — what every
// statement pays now that latency histograms are always on — stays within
// 2% of a disabled-histogram baseline on the vectorized filter+agg
// workload. The per-statement cost is a handful of uncontended atomic adds,
// so the margin is wide; this smoke exists to catch a future change that
// moves histogram recording into a per-batch or per-row path. Enabled via
// make overhead (LAMBDADB_OVERHEAD_SMOKE=1) to keep ordinary runs
// timing-free.
func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("LAMBDADB_OVERHEAD_SMOKE") == "" {
		t.Skip("set LAMBDADB_OVERHEAD_SMOKE=1 (make overhead) to run")
	}
	db := Open(WithWorkers(1))
	defer db.Close()
	db.MustExec(`CREATE TABLE obs_bench (k BIGINT, v DOUBLE)`)
	tbl, err := db.Store().Table("obs_bench")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Store().Begin()
	const rows = 1_000_000
	const chunk = 1 << 14
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		b := types.NewBatch(tbl.Schema())
		for i := lo; i < hi; i++ {
			b.Cols[0].AppendInt(int64(i))
			b.Cols[1].AppendFloat(float64(i))
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	const query = `SELECT count(*), sum(v) FROM obs_bench WHERE v > 500000`
	// run executes the query once under h and returns the time.
	run := func(h *telemetry.Histograms) float64 {
		db.Metrics().SetHist(h)
		start := time.Now()
		if _, err := db.Exec(query); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(start))
	}
	disabled, armed := telemetry.NewDisabledHistograms(), &telemetry.Histograms{}

	// Alternate the sides one statement at a time, each pair led by the
	// other side than the last, and judge the median per-pair ratio: a slow
	// moment of the host or a GC cycle lands on both runs of a pair or makes
	// one outlier among hundreds, so no single pair decides.
	for i := 0; i < 5; i++ {
		run(disabled)
		run(armed)
	}
	ratios := make([]float64, 501)
	for i := range ratios {
		if i%2 == 0 {
			base := run(disabled)
			ratios[i] = run(armed) / base
		} else {
			a := run(armed)
			ratios[i] = a / run(disabled)
		}
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("armed/disabled over %d pairs: quartiles %.4f %.4f %.4f, median overhead %.2f%%",
		len(ratios), ratios[len(ratios)/4], ratios[len(ratios)/2], ratios[3*len(ratios)/4], overhead*100)
	if overhead > 0.02 {
		t.Errorf("armed histogram overhead %.2f%% exceeds 2%%", overhead*100)
	}
}
