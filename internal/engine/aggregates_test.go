package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lambdadb/internal/types"
)

func TestStddevVariance(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE v (g BIGINT, x DOUBLE)`)
	db.MustExec(`INSERT INTO v VALUES (1, 2), (1, 4), (1, 4), (1, 4), (1, 5), (1, 5), (1, 7), (1, 9),
		(2, 10), (2, 10)`)
	r, err := db.Query(`SELECT g, stddev(x), variance(x) FROM v GROUP BY g ORDER BY g`)
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 is the textbook population-stddev example: σ = 2, σ² = 4.
	if math.Abs(r.Rows[0][1].F-2) > 1e-12 || math.Abs(r.Rows[0][2].F-4) > 1e-12 {
		t.Errorf("group 1: stddev=%v variance=%v, want 2/4", r.Rows[0][1].F, r.Rows[0][2].F)
	}
	// Constant group: zero spread.
	if r.Rows[1][1].F != 0 || r.Rows[1][2].F != 0 {
		t.Errorf("group 2: stddev=%v variance=%v, want 0/0", r.Rows[1][1].F, r.Rows[1][2].F)
	}
}

func TestStddevMatchesManualFormula(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`SELECT stddev(f), sqrt(avg(f * f) - avg(f) * avg(f)) FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Rows[0][0].F-r.Rows[0][1].F) > 1e-9 {
		t.Errorf("stddev %v != manual %v", r.Rows[0][0].F, r.Rows[0][1].F)
	}
}

func TestStddevOverIntColumn(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`SELECT variance(n) FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	// n = 1..5: population variance 2.
	if math.Abs(r.Rows[0][0].F-2) > 1e-12 {
		t.Errorf("variance = %v, want 2", r.Rows[0][0].F)
	}
}

func TestStddevEmptyAndNullHandling(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE sparse (x DOUBLE)`)
	r, err := db.Query(`SELECT stddev(x) FROM sparse`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rows[0][0].Null {
		t.Errorf("stddev over empty input should be NULL, got %v", r.Rows[0][0])
	}
	db.MustExec(`INSERT INTO sparse (x) VALUES (1.0)`)
	db.MustExec(`INSERT INTO sparse (x) VALUES (NULL)`)
	db.MustExec(`INSERT INTO sparse (x) VALUES (3.0)`)
	r, err = db.Query(`SELECT stddev(x), count(x) FROM sparse`)
	if err != nil {
		t.Fatal(err)
	}
	// NULLs are ignored: values {1,3}, σ = 1.
	if math.Abs(r.Rows[0][0].F-1) > 1e-12 || r.Rows[0][1].I != 2 {
		t.Errorf("stddev=%v count=%v", r.Rows[0][0], r.Rows[0][1])
	}
}

func TestStddevParallelMatchesSerial(t *testing.T) {
	// Enough rows to trigger the morsel-parallel aggregation path.
	mk := func(workers int) float64 {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE big (x DOUBLE)`)
		// Bulk-load via the storage layer for speed.
		store := db.Store()
		tbl, err := store.Table("big")
		if err != nil {
			t.Fatal(err)
		}
		tx := store.Begin()
		b := types.NewBatch(tbl.Schema())
		for i := 0; i < 40_000; i++ {
			b.Cols[0].AppendFloat(float64(i % 100))
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		r, err := db.Query(`SELECT stddev(x) FROM big`)
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows[0][0].F
	}
	serial, parallel := mk(1), mk(8)
	if math.Abs(serial-parallel) > 1e-9 {
		t.Errorf("serial %v != parallel %v", serial, parallel)
	}
}

// TestBigintSumIsExact: SUM and AVG over BIGINT add in 128 bits, at one
// worker and across the parts of a parallel aggregation. SUM fails with
// "bigint out of range" when the final sum is past int64 however it got
// there, succeeds when only a partial sum was, and AVG divides the exact sum.
func TestBigintSumIsExact(t *testing.T) {
	const big = 4611686018427387904 // 2^62
	for _, workers := range []int{1, 8} {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE s (g BIGINT, x BIGINT)`)
		tbl, err := db.Store().Table("s")
		if err != nil {
			t.Fatal(err)
		}
		// Group 0: 40,000 rows of 2^62. Group 1: the same, then as many of
		// -2^62 and one 5, so its sum is 5 and half-way it was 10,000 × 2^64.
		b := types.NewBatch(tbl.Schema())
		for g, vals := range [][]int64{{big}, {big, -big}} {
			for _, v := range vals {
				for i := 0; i < 40_000; i++ {
					b.Cols[0].AppendInt(int64(g))
					b.Cols[1].AppendInt(v)
				}
			}
		}
		b.Cols[0].AppendInt(1)
		b.Cols[1].AppendInt(5)
		tx := db.Store().Begin()
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for q, want := range map[string]string{
			`SELECT avg(x) FROM s WHERE g = 0`:           "[[4.611686018427388e+18]]",
			`SELECT sum(x), avg(x) FROM s WHERE g = 1`:   "[[5 6.24992187597655e-05]]",
			`SELECT g, avg(x) FROM s GROUP BY g`:         "[[0 4.611686018427388e+18] [1 6.24992187597655e-05]]",
			`SELECT sum(x) FROM s WHERE g = 0 AND x < 0`: "[[NULL]]",
		} {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("workers %d: %s: %v", workers, q, err)
			}
			if got := fmt.Sprint(r.Rows); got != want {
				t.Errorf("workers %d: %s = %s, want %s", workers, q, got, want)
			}
		}
		for _, q := range []string{`SELECT sum(x) FROM s WHERE g = 0`, `SELECT g, sum(x) FROM s GROUP BY g`,
			`SELECT sum(x) FROM s WHERE g = 0 LIMIT 3`} {
			if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "bigint out of range") {
				t.Errorf("workers %d: %s: err = %v, want bigint out of range", workers, q, err)
			}
		}
	}
}
