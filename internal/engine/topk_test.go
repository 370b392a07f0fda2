package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lambdadb/internal/types"
)

func TestTopKPlanFusion(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`EXPLAIN SELECT n FROM nums ORDER BY n DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, row := range r.Rows {
		joined += row[0].S + "\n"
	}
	if !strings.Contains(joined, "TopK 2") {
		t.Errorf("Limit over Sort not fused to TopK:\n%s", joined)
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	db := Open()
	rows := randomTable(t, db, "t", 5000, 99)
	_ = rows
	limited, err := db.Query(`SELECT v FROM t ORDER BY v DESC LIMIT 25`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := db.Query(`SELECT v FROM t ORDER BY v DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 25 {
		t.Fatalf("limited rows = %d", len(limited.Rows))
	}
	for i := range limited.Rows {
		if limited.Rows[i][0].F != full.Rows[i][0].F {
			t.Errorf("row %d: topk %v vs full %v", i, limited.Rows[i][0].F, full.Rows[i][0].F)
		}
	}
}

func TestTopKWithOffset(t *testing.T) {
	db := Open()
	randomTable(t, db, "t", 2000, 5)
	withOffset, err := db.Query(`SELECT v FROM t ORDER BY v LIMIT 10 OFFSET 7`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := db.Query(`SELECT v FROM t ORDER BY v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(withOffset.Rows) != 10 {
		t.Fatalf("rows = %d", len(withOffset.Rows))
	}
	for i := range withOffset.Rows {
		if withOffset.Rows[i][0].F != full.Rows[i+7][0].F {
			t.Errorf("offset row %d: %v vs %v", i, withOffset.Rows[i][0].F, full.Rows[i+7][0].F)
		}
	}
}

func TestTopKLargerThanInput(t *testing.T) {
	db := newTestDB(t)
	got := queryInts(t, db, `SELECT n FROM nums ORDER BY n LIMIT 100`)
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestLimitZero(t *testing.T) {
	db := newTestDB(t)
	got := queryInts(t, db, `SELECT n FROM nums ORDER BY n LIMIT 0`)
	if len(got) != 0 {
		t.Fatalf("LIMIT 0 returned %v", got)
	}
}

func TestTopKMultiKey(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`SELECT s, n FROM nums ORDER BY s DESC, n ASC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	// nums: (1,a) (2,b) (3,c) (4,a) (5,b) → ordered: (c,3) (b,2) (b,5).
	want := [][2]interface{}{{"c", int64(3)}, {"b", int64(2)}, {"b", int64(5)}}
	for i, w := range want {
		if r.Rows[i][0].S != w[0].(string) || r.Rows[i][1].I != w[1].(int64) {
			t.Errorf("row %d = %v, want %v", i, r.Rows[i], w)
		}
	}
}

// loadIDTable creates name (id BIGINT, col typ) with n rows in one batch: id
// is the row number and fill appends the row's col value.
func loadIDTable(t *testing.T, db *DB, name, col string, typ types.Type, n int, fill func(c *types.Column, i int)) {
	t.Helper()
	tbl, err := db.Store().CreateTable(name, types.Schema{{Name: "id", Type: types.Int64}, {Name: col, Type: typ}})
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBatch(tbl.Schema())
	for i := 0; i < n; i++ {
		b.Cols[0].AppendInt(int64(i))
		fill(b.Cols[1], i)
	}
	tx := db.Store().Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTopKIsPrefixOfFullSort: ORDER BY ... LIMIT k returns the first k rows of
// the same ORDER BY, whole rows compared, although every key value is shared
// by thousands of rows — ties come out in scan order in both.
func TestTopKIsPrefixOfFullSort(t *testing.T) {
	const n = 50_000
	for _, workers := range []int{1, 8} {
		db := Open(WithWorkers(workers))
		loadIDTable(t, db, "t", "g", types.Int64, n, func(c *types.Column, i int) { c.AppendInt(int64(i) * 7919 % 13) })
		for _, order := range []string{"g", "g DESC"} {
			q := `SELECT id, g FROM t ORDER BY ` + order
			full, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 10, 1000, 5000} {
				limited, err := db.Query(fmt.Sprintf("%s LIMIT %d", q, k))
				if err != nil {
					t.Fatal(err)
				}
				if len(limited.Rows) != k {
					t.Fatalf("workers=%d %s LIMIT %d: %d rows", workers, order, k, len(limited.Rows))
				}
				for i, row := range limited.Rows {
					if want := full.Rows[i]; row[0].I != want[0].I || row[1].I != want[1].I {
						t.Fatalf("workers=%d %s LIMIT %d: row %d is %v, the full sort's is %v", workers, order, k, i, row, want)
					}
				}
			}
		}
	}
}

// TestOrderByNaNSortsLast: a DOUBLE key orders NaN after every number and
// equal to itself, as PostgreSQL does, so ORDER BY v, id is a total order —
// ids are unique — and every worker count returns the one sequence that is
// sorted under it. Under DESC the NaN rows come first.
func TestOrderByNaNSortsLast(t *testing.T) {
	const n = 60_000
	rng := rand.New(rand.NewSource(97))
	vs := make([]float64, n)
	for i := range vs {
		if vs[i] = float64(rng.Intn(1000)); i%97 == 0 {
			vs[i] = math.NaN()
		}
	}
	// rank maps v to an order-preserving float with NaN above every number.
	rank := func(v float64) float64 {
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	for _, workers := range []int{1, 2, 8} {
		db := Open(WithWorkers(workers))
		loadIDTable(t, db, "t", "v", types.Float64, n, func(c *types.Column, i int) { c.AppendFloat(vs[i]) })
		asc, err := db.Query(`SELECT id, v FROM t ORDER BY v, id`)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			a, b := asc.Rows[i-1], asc.Rows[i]
			if ra, rb := rank(a[1].F), rank(b[1].F); ra > rb || ra == rb && a[0].I > b[0].I {
				t.Fatalf("workers=%d: row %d %v sorts after row %d %v", workers, i-1, a, i, b)
			}
		}
		desc, err := db.Query(`SELECT id, v FROM t ORDER BY v DESC, id`)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range desc.Rows {
			if nan := math.IsNaN(row[1].F); nan != (i < (n+96)/97) {
				t.Fatalf("workers=%d: ORDER BY v DESC row %d is %v; the %d NaN rows must come first", workers, i, row, (n+96)/97)
			}
		}
	}
}

// TestTopKTiesAtTheBound: ORDER BY ... LIMIT k returns the first k rows of
// the same ORDER BY, whole rows compared bit for bit, at every worker count,
// when thousands of rows tie with the k-th on the first key. The first key
// is BIGINT (its extremes, NULL) or DOUBLE (NULL, NaN, -0 and +0, ±Inf), in
// either direction; the second key, or else scan order, decides among the
// ties. The parts share one k-th key: against another part's, a tied row is
// admitted, as it may still win on position.
func TestTopKTiesAtTheBound(t *testing.T) {
	const n = 70_000
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	floats := []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 1.5, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(47))
	fill := func(b *types.Batch) {
		for i := range n {
			b.Cols[0].AppendInt(int64(i))
			if rng.Intn(9) == 0 {
				b.Cols[1].AppendNull()
			} else {
				b.Cols[1].AppendInt(ints[rng.Intn(len(ints))])
			}
			if rng.Intn(9) == 0 {
				b.Cols[2].AppendNull()
			} else {
				b.Cols[2].AppendFloat(floats[rng.Intn(len(floats))])
			}
			b.Cols[3].AppendInt(int64(rng.Intn(50)))
		}
	}
	var orders []string
	for _, first := range []string{"g", "g DESC", "x", "x DESC"} {
		orders = append(orders, first, first+", y", first+", y DESC")
	}
	want := map[string][][]types.Value{}
	for _, workers := range []int{1, 2, 8} {
		db := Open(WithWorkers(workers))
		db.MustExec(`CREATE TABLE t (id BIGINT, g BIGINT, x DOUBLE, y BIGINT)`)
		rng.Seed(47)
		bulkLoad(t, db, "t", fill)
		for _, order := range orders {
			q := `SELECT id, g, x, y FROM t ORDER BY ` + order
			full, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want[order] = full.Rows
			}
			for _, k := range []int{1, 7, 100, 4000, 20_000} {
				limited, err := db.Query(fmt.Sprintf("%s LIMIT %d", q, k))
				if err != nil {
					t.Fatal(err)
				}
				if len(limited.Rows) != k {
					t.Fatalf("workers=%d ORDER BY %s LIMIT %d: %d rows", workers, order, k, len(limited.Rows))
				}
				for i, row := range limited.Rows {
					if !sameBits(row, full.Rows[i]) || !sameBits(row, want[order][i]) {
						t.Fatalf("workers=%d ORDER BY %s LIMIT %d: row %d is %v; the full sort's is %v, at Workers=1 %v",
							workers, order, k, i, row, full.Rows[i], want[order][i])
					}
				}
			}
		}
	}
}
