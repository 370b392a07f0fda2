package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lambdadb/internal/types"
)

// TestUpdateSetNull: an untyped NULL assigned by SET takes the column's
// type, as INSERT … VALUES (NULL) stores one, with and without a WHERE.
func TestUpdateSetNull(t *testing.T) {
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE n (id BIGINT, d DOUBLE, k BIGINT, s TEXT)`)
	db.MustExec(`INSERT INTO n VALUES (1, 1.5, 10, 'a'), (2, 2.5, 20, 'b'), (3, 3.5, 30, 'c')`)
	for _, tc := range []struct {
		stmt     string
		affected int
		nulls    [3][3]bool // per id 1..3: d, k, s
	}{
		{`UPDATE n SET d = NULL WHERE id = 2`, 1, [3][3]bool{{}, {true}, {}}},
		{`UPDATE n SET k = NULL WHERE id >= 2`, 2, [3][3]bool{{}, {true, true}, {false, true}}},
		{`UPDATE n SET s = NULL WHERE id = 1`, 1, [3][3]bool{{false, false, true}, {true, true}, {false, true}}},
		{`UPDATE n SET d = NULL`, 3, [3][3]bool{{true, false, true}, {true, true}, {true, true}}},
		{`UPDATE n SET k = NULL, s = NULL`, 3, [3][3]bool{{true, true, true}, {true, true, true}, {true, true, true}}},
	} {
		r, err := db.Exec(tc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if r.Affected != tc.affected {
			t.Fatalf("%s: affected %d, want %d", tc.stmt, r.Affected, tc.affected)
		}
		got, err := db.Query(`SELECT id, d, k, s FROM n ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", tc.stmt, len(got.Rows))
		}
		for i, row := range got.Rows {
			for j, want := range tc.nulls[i] {
				if v := row[j+1]; v.Null != want {
					t.Errorf("%s: id %d column %s = %v, NULL should be %v", tc.stmt, i+1, got.Columns[j+1], v, want)
				}
			}
		}
	}
}

// dmlTable returns a DB holding t: 3,000 rows whose SET expressions below
// fail on some row, always one that their WHERE rejects — a zero or NULL
// divisor, BIGINT's largest value, a DOUBLE past BIGINT's range — with NULLs
// in every column but id.
func dmlTable(t *testing.T) *DB {
	t.Helper()
	db := Open(WithWorkers(2))
	db.MustExec(`CREATE TABLE t (id BIGINT, a BIGINT, b BIGINT, x DOUBLE, i BIGINT)`)
	const rows = 3000
	null := func(i, k int, v string) string {
		if i%k == 0 {
			return "NULL"
		}
		return v
	}
	var sb strings.Builder
	for lo := 0; lo < rows; lo += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			a, b, x := fmt.Sprint(i*7%1000-500), fmt.Sprint(i%5), fmt.Sprintf("%d.25", i-1500)
			switch i {
			case 1234:
				a, b = fmt.Sprint(int64(math.MaxInt64)), "0"
			case 2345:
				x = "1e300"
			}
			fmt.Fprintf(&sb, "(%d, %s, %s, %s, %s)", i, null(i, 11, a), null(i, 13, b), null(i, 17, x), null(i, 19, "0"))
		}
		db.MustExec(sb.String())
	}
	return db
}

// TestUpdateSetReadsOnlySelectedRows: SET is computed over the rows the
// WHERE selects and no others, so a row it rejects cannot fail the
// statement; after each UPDATE the table holds what the SELECT of the same
// expression under the same WHERE returned, and every other row as it was.
// A WHERE conjunct that fails fails UPDATE and DELETE exactly where it fails
// SELECT … WHERE.
func TestUpdateSetReadsOnlySelectedRows(t *testing.T) {
	db := dmlTable(t)
	column := func(col, where string) map[int64]types.Value {
		t.Helper()
		r, err := db.Query(`SELECT id, ` + col + ` FROM t` + where)
		if err != nil {
			t.Fatalf("SELECT id, %s FROM t%s: %v", col, where, err)
		}
		out := make(map[int64]types.Value, len(r.Rows))
		for _, row := range r.Rows {
			out[row[0].I] = row[1]
		}
		return out
	}
	for _, tc := range []struct{ col, set, where string }{
		{"a", "a % b", " WHERE b <> 0"},
		{"a", "a + 1", " WHERE a < 100"},
		{"i", "CAST(x AS BIGINT)", " WHERE x < 1e6"},
	} {
		stmt := "UPDATE t SET " + tc.col + " = " + tc.set + tc.where
		want := column(tc.set, tc.where)
		before := column(tc.col, "")
		r, err := db.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if r.Affected != len(want) || len(want) == 0 || len(want) == len(before) {
			t.Fatalf("%s: affected %d, the SELECT returns %d of %d rows", stmt, r.Affected, len(want), len(before))
		}
		after := column(tc.col, "")
		if len(after) != len(before) {
			t.Fatalf("%s: %d rows, was %d", stmt, len(after), len(before))
		}
		for id, v := range after {
			w, ok := want[id]
			if !ok {
				w = before[id]
			}
			if v.Null != w.Null || !v.Null && v.Compare(w) != 0 {
				t.Fatalf("%s: id %d holds %v, want %v (selected %v)", stmt, id, v, w, ok)
			}
		}
	}

	rows := len(column("id", ""))
	for _, where := range []string{
		" WHERE a % b = 1",
		" WHERE b <> 0 AND a % b = 1",
		" WHERE id < 0 AND a % b = 1",
		" WHERE b <> 0 AND a % (b - 1) = 0",
		" WHERE b <> 0 AND a % b = 1 AND x > 0",
		" WHERE a % 7 = 100 AND b <> 0",
	} {
		_, selErr := db.Query(`SELECT id FROM t` + where)
		for _, stmt := range []string{"UPDATE t SET i = i + 1" + where, "DELETE FROM t" + where} {
			if _, err := db.Exec(stmt); fmt.Sprint(err) != fmt.Sprint(selErr) {
				t.Errorf("%s fails with %v, the SELECT with %v", stmt, err, selErr)
			}
		}
	}
	if n := len(column("id", "")); n != rows {
		t.Errorf("%d rows after statements that failed or matched nothing, was %d", n, rows)
	}
}

// The prepared UPDATE of lambdabench's OLTP mix over its kv table, aged as
// that mix ages it.
const (
	kvRows    = 200_000
	kvAged    = 3_000
	kvUpdate  = "UPDATE kv SET x = $1 WHERE id = $2"
	kvPrepare = "PREPARE upd AS " + kvUpdate
)

// agedKV returns a session over a DB holding kv, kvRows rows with a HASH
// index on id, aged by kvAged updates: each deletes a random row and appends
// its replacement, as UPDATE does. The updates go through the store, so the
// table ages without kvAged full scans.
func agedKV(tb testing.TB) *Session {
	tb.Helper()
	db := Open()
	db.MustExec("CREATE TABLE kv (id BIGINT, grp BIGINT, x DOUBLE, s TEXT)")
	store := db.Store()
	tbl, err := store.Table("kv")
	if err != nil {
		tb.Fatal(err)
	}
	row := func(b *types.Batch, id int, x float64) {
		b.Cols[0].AppendInt(int64(id))
		b.Cols[1].AppendInt(int64(id % 100))
		b.Cols[2].AppendFloat(x)
		b.Cols[3].AppendString(fmt.Sprintf("v%d", id))
	}
	b := types.NewBatch(tbl.Schema())
	for id := range kvRows {
		row(b, id, float64(id)/2)
	}
	tx := store.Begin()
	if err := tx.Insert(tbl, b); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	db.MustExec("CREATE INDEX kv_id ON kv(id) USING HASH")
	rng := rand.New(rand.NewSource(1))
	phys := make([]int, kvRows) // id → physical row
	for id := range phys {
		phys[id] = id
	}
	for k := range kvAged {
		id := rng.Intn(kvRows)
		b := &types.Batch{Schema: tbl.Schema()}
		for _, c := range b.Schema {
			b.Cols = append(b.Cols, types.NewColumn(c.Type, 1))
		}
		row(b, id, float64(k))
		tx := store.Begin()
		if err := tx.Delete(tbl, phys[id]); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Insert(tbl, b); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
		phys[id] = kvRows + k
	}
	s := db.NewSession()
	if _, err := s.Exec(kvPrepare); err != nil {
		tb.Fatal(err)
	}
	return s
}

// updateKV runs the prepared UPDATE on a random id; it must touch one row.
func updateKV(tb testing.TB, s *Session, rng *rand.Rand, i int) {
	args := []types.Value{types.NewFloat(float64(i)), types.NewInt(rng.Int63n(kvRows))}
	r, err := s.ExecutePrepared(context.Background(), "upd", args)
	if err != nil {
		tb.Fatal(err)
	}
	if r.Affected != 1 {
		tb.Fatalf("%s with %v: affected %d, want 1", kvUpdate, args, r.Affected)
	}
}

// BenchmarkUpdateScan: the prepared UPDATE of the OLTP mix over the aged kv
// table, one statement per op. Its WHERE has no index probe yet, so every
// statement scans the whole table; ns/op and B/op are what that scan costs.
func BenchmarkUpdateScan(b *testing.B) {
	s := agedKV(b)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		updateKV(b, s, rng, i)
	}
}

// TestUpdateAllocBudget: the prepared UPDATE allocates at most 1.5 B per
// row it scans (measured 0.83). UPDATE selects its rows with the filter's
// select kernels and computes SET over the selected row alone; what is left
// is the scan's per-batch headers and the cursor's gather buffers. An UPDATE
// that built a batch for, and evaluated SET over, every scanned batch spent
// 54 B a row.
func TestUpdateAllocBudget(t *testing.T) {
	s := agedKV(t)
	rng := rand.New(rand.NewSource(3))
	for i := range 3 {
		updateKV(t, s, rng, i)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		updateKV(t, s, rng, i)
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / (kvRows + kvAged)
	t.Logf("%.3f B/row", perRow)
	if perRow > 1.5 {
		t.Errorf("UPDATE allocates %.2f B per scanned row, budget 1.5", perRow)
	}
}
