package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lambdadb/internal/exec"
	"lambdadb/internal/types"
)

// bulkLoad appends the rows fill writes into one batch of table's schema
// in one commit: a clean table, every stretch admitted whole by a scan.
func bulkLoad(t *testing.T, db *DB, table string, fill func(b *types.Batch)) {
	t.Helper()
	tbl, err := db.Store().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBatch(tbl.Schema())
	fill(b)
	tx := db.Store().Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether two result rows are equal value for value, a
// DOUBLE by its bits (NaN included).
func sameBits(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Null != y.Null || x.T != y.T || x.I != y.I || x.S != y.S || x.B != y.B ||
			math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// noRECTable is 40,000 rows — enough for the parallel aggregation to split —
// of a group key k, a DOUBLE d with NULLs, NaNs and -0, a BIGINT i with
// NULLs, a VARCHAR s with NULLs and a DOUBLE p to filter on.
func noRECTable(t *testing.T, workers int) *DB {
	db := Open(WithWorkers(workers))
	db.MustExec(`CREATE TABLE t (k BIGINT, d DOUBLE, i BIGINT, s VARCHAR, p DOUBLE)`)
	bulkLoad(t, db, "t", func(b *types.Batch) {
		for r := range 40_000 {
			row := []types.Value{types.NewInt(int64(r % 7)),
				types.NewFloat(float64(r%1000)/1000 - 0.25), types.NewInt(int64(r%41) - 20),
				types.NewString(fmt.Sprintf("s%03d", r%97)), types.NewFloat(float64(r*7919%10007) / 10007)}
			switch {
			case r%13 == 0:
				row[1] = types.NewNull(types.Float64)
			case r%29 == 0:
				row[1] = types.NewFloat(math.NaN())
			case r%31 == 0:
				row[1] = types.NewFloat(math.Copysign(0, -1))
			}
			if r%17 == 0 {
				row[2] = types.NewNull(types.Int64)
			}
			if r%19 == 0 {
				row[3] = types.NewNull(types.String)
			}
			b.AppendRow(row)
		}
	})
	return db
}

// TestFilteredAggregateMatchesCaseForm is NoREC (Rigger & Su) on fixed
// data: an aggregate over the rows WHERE p keeps must equal, bit for bit,
// the same aggregate over every row of CASE WHEN p THEN x END, and count(*)
// must equal sum(CASE WHEN p THEN 1 ELSE 0 END). Every aggregate over a
// DOUBLE, a BIGINT and a VARCHAR with NULLs and NaN, key-less and grouped,
// at Workers 1, 2 and 8, with operator stats off and on; with them on, the
// Filter's rows are the survivors, in the stats and in EXPLAIN ANALYZE.
func TestFilteredAggregateMatchesCaseForm(t *testing.T) {
	preds := []string{
		"p < 0.5",                 // a select kernel
		"d <> 0.5",                // NaN passes <>
		"d >= 0 AND i < 3",        // a chain of kernels, BIGINT and DOUBLE
		"i < 2.5",                 // BIGINT against DOUBLE
		"p < 0.7 AND i % 3 = 1",   // a kernel, then a conjunct evaluated whole
		"s < 's050' OR d IS NULL", // evaluated whole
		"p >= 0.25 AND s <> 's001' AND k <> 3",
	}
	aggs := []string{"count(%s)", "sum(%s)", "avg(%s)", "min(%s)", "max(%s)", "stddev(%s)", "variance(%s)"}
	var plain, cased []string
	for _, x := range []string{"d", "i", "s"} {
		for _, agg := range aggs {
			if x == "s" && !strings.HasPrefix(agg, "count") && !strings.HasPrefix(agg, "m") {
				continue
			}
			plain = append(plain, fmt.Sprintf(agg, x))
			cased = append(cased, fmt.Sprintf(agg, "CASE WHEN %[1]s THEN "+x+" END"))
		}
	}
	filterRows := regexp.MustCompile(`Filter .*\(rows=(\d+) `)
	for _, workers := range []int{1, 2, 8} {
		db := noRECTable(t, workers)
		for _, pred := range preds {
			caseList := fmt.Sprintf(strings.Join(cased, ", "), pred)
			for _, grouped := range []bool{false, true} {
				where := fmt.Sprintf("SELECT count(*), %s FROM t WHERE %s", strings.Join(plain, ", "), pred)
				all := fmt.Sprintf("SELECT sum(CASE WHEN %s THEN 1 ELSE 0 END), %s FROM t", pred, caseList)
				if grouped {
					where = strings.Replace(where, "SELECT ", "SELECT k, ", 1) + " GROUP BY k ORDER BY k"
					all = strings.Replace(all, "SELECT ", "SELECT k, ", 1) + " GROUP BY k ORDER BY k"
				}
				caseForm, err := db.Query(all)
				if err != nil {
					t.Fatalf("%s: %v", all, err)
				}
				// A group no row of which survives is absent from the
				// filtered form.
				var want [][]types.Value
				for _, row := range caseForm.Rows {
					if row[len(row)-len(plain)-1].I > 0 {
						want = append(want, row)
					}
				}
				for _, stats := range []bool{false, true} {
					name := fmt.Sprintf("workers %d, stats %v: %s", workers, stats, where)
					s := db.NewSession()
					s.CollectStats(stats)
					got, err := s.Exec(where)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got.Rows) != len(want) {
						t.Fatalf("%s: %d rows, the CASE form %d", name, len(got.Rows), len(want))
					}
					survivors := int64(0)
					for r := range got.Rows {
						if !sameBits(got.Rows[r], want[r]) {
							t.Fatalf("%s: row %d = %v, the CASE form %v", name, r, got.Rows[r], want[r])
						}
						survivors += got.Rows[r][len(got.Rows[r])-len(plain)-1].I
					}
					if stats {
						if rows := filterStatRows(s.LastStats()); rows != survivors {
							t.Fatalf("%s: the Filter's stats count %d rows, %d survive", name, rows, survivors)
						}
					}
					s.Close()
					if !grouped {
						text := strings.Join(explainAnalyzeLines(t, db, where), "\n")
						m := filterRows.FindStringSubmatch(text)
						if m == nil || m[1] != strconv.FormatInt(survivors, 10) {
							t.Fatalf("%s: EXPLAIN ANALYZE's Filter line is not rows=%d:\n%s", name, survivors, text)
						}
					}
				}
			}
		}
	}
}

// filterStatRows is the rows out of the one Filter in a stats tree.
func filterStatRows(n *exec.OpStats) int64 {
	if n == nil {
		return -1
	}
	if strings.HasPrefix(n.Name, "Filter") {
		return n.RowsOut
	}
	for _, c := range n.Children {
		if rows := filterStatRows(c); rows >= 0 {
			return rows
		}
	}
	return -1
}

// TestRejectedRowNeverRaises: an aggregate's argument is evaluated over the
// rows its filter keeps, never over one it rejected, so a modulo by a y the
// WHERE clause excludes the zeros of succeeds, key-less and grouped, at
// every worker count. A conjunct of the WHERE clause is another matter: it
// is evaluated over every row, as it always was, so the modulo inside it
// fails.
func TestRejectedRowNeverRaises(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE t (x BIGINT, y BIGINT)`)
		bulkLoad(t, db, "t", func(b *types.Batch) {
			for r := range 40_000 {
				b.AppendRow([]types.Value{types.NewInt(int64(r)), types.NewInt(int64(r % 5))})
			}
		})
		var sum int64
		var sums [5]int64
		for r := range int64(40_000) {
			if y := r % 5; y != 0 {
				sum += r % y
				sums[y] += r % y
			}
		}
		for q, want := range map[string]string{
			`SELECT sum(x % y) FROM t WHERE y <> 0`: fmt.Sprintf("[[%d]]", sum),
			`SELECT y, sum(x % y) FROM t WHERE y <> 0 GROUP BY y ORDER BY y`: fmt.Sprintf("[[1 %d] [2 %d] [3 %d] [4 %d]]",
				sums[1], sums[2], sums[3], sums[4]),
		} {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("workers %d: %s: %v", workers, q, err)
			}
			if got := fmt.Sprint(r.Rows); got != want {
				t.Errorf("workers %d: %s = %s, want %s", workers, q, got, want)
			}
		}
		q := `SELECT count(*) FROM t WHERE y <> 0 AND x % y = 1`
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "modulo by zero") {
			t.Errorf("workers %d: %s: err = %v, want modulo by zero", workers, q, err)
		}
	}
}

// TestDMLOnCleanStretchesHitsExactRows: UPDATE and DELETE find their rows
// through the cursor's row ids, which a clean round writes out only when
// asked. On a clean table of three and a half stretches they must hit
// exactly the rows their WHERE names, and a checkpoint image of the result
// must load back to the same table.
func TestDMLOnCleanStretchesHitsExactRows(t *testing.T) {
	const n = 3*types.BatchSize + 500
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE t (id BIGINT, v BIGINT)`)
	bulkLoad(t, db, "t", func(b *types.Batch) {
		for r := range n {
			b.AppendRow([]types.Value{types.NewInt(int64(r)), types.NewInt(int64(r))})
		}
	})
	if r := db.MustExec(`UPDATE t SET v = v + 1000000 WHERE id % 7 = 3`); r.Affected != (n+3)/7 {
		t.Fatalf("UPDATE affected %d rows, want %d", r.Affected, (n+3)/7)
	}
	if r := db.MustExec(`DELETE FROM t WHERE id % 11 = 5 OR id = 1023 OR id = 2048`); r.Affected != (n+5)/11+2 {
		t.Fatalf("DELETE affected %d rows, want %d", r.Affected, (n+5)/11+2)
	}
	want := map[int64]int64{}
	for id := range int64(n) {
		v := id
		if id%7 == 3 {
			v += 1000000
		}
		if id%11 != 5 && id != 1023 && id != 2048 {
			want[id] = v
		}
	}
	check := func(db *DB, what string) {
		t.Helper()
		r, err := db.Query(`SELECT id, v FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(r.Rows), len(want))
		}
		for _, row := range r.Rows {
			if v, ok := want[row[0].I]; !ok || v != row[1].I {
				t.Fatalf("%s: row %v, want v = %d (present %v)", what, row, v, ok)
			}
		}
	}
	check(db, "after DML")
	path := filepath.Join(t.TempDir(), "db.img")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check(restored, "restored image")
}
