package server

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"lambdadb/internal/engine"
	"lambdadb/internal/server/client"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/types"
)

// insertRows commits rows into table through the storage layer.
func insertRows(t *testing.T, db *engine.DB, table string, rows [][]types.Value) {
	t.Helper()
	tbl, err := db.Store().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBatch(tbl.Schema())
	for _, row := range rows {
		b.AppendRow(row)
	}
	tx := db.Store().Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// oversizeTable creates big, 20 rows of 1 MiB each, and returns the error
// text a SELECT of all of it gets: its payload exceeds the frame limit.
func oversizeTable(t *testing.T, db *engine.DB, c *client.Conn) string {
	t.Helper()
	if _, err := c.Exec(`CREATE TABLE big (s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	mib := types.NewString(strings.Repeat("x", 1<<20))
	rows := make([][]types.Value, 20)
	for i := range rows {
		rows[i] = []types.Value{mib}
	}
	insertRows(t, db, "big", rows)
	return fmt.Sprintf("wire: the %d-byte result exceeds the %d-byte frame limit", 20*(1<<20+1)+len("s:VARCHAR"), wire.MaxFrame)
}

// TestServerOversizeResultKeepsSession: a result larger than one frame is
// the statement's error, and the connection serves the next statement.
func TestServerOversizeResultKeepsSession(t *testing.T) {
	_, db, addr := startServer(t, Config{})
	c := dial(t, addr)
	want := oversizeTable(t, db, c)

	_, err := c.Exec(`SELECT s FROM big`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Msg != want {
		t.Fatalf("err = %v, want the server error %q", err, want)
	}
	res, err := c.Exec(`SELECT 1`)
	if err != nil {
		t.Fatalf("connection unusable after an oversize result: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("SELECT 1 = %v", res.Rows)
	}
}

// TestServerOversizeResultAbortsTransaction: an oversize result fails its
// statement inside BEGIN…COMMIT as any statement error does — the open
// transaction is rolled back, and the error says so.
func TestServerOversizeResultAbortsTransaction(t *testing.T) {
	srv, db, addr := startServer(t, Config{})
	c := dial(t, addr)
	want := oversizeTable(t, db, c) + " (open transaction rolled back)"
	if _, err := c.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO big VALUES ('y')`); err != nil {
		t.Fatal(err)
	}
	_, err := c.Exec(`SELECT s FROM big`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Msg != want {
		t.Fatalf("err = %v, want the server error %q", err, want)
	}
	srv.mu.Lock()
	for sc := range srv.conns {
		if sc.sess.InTransaction() {
			t.Error("the session's transaction is still open after an oversize result")
		}
	}
	srv.mu.Unlock()
	res, err := c.Exec(`SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].I; n != 20 {
		t.Fatalf("big holds %d rows after the rollback, want 20", n)
	}
}

// TestServerMultiPartResultMatchesEmbedded: a result of many encoder parts,
// with NULLs and escapes, arrives as the embedded engine returns it, while
// other sessions keep inserting into the fetched table.
func TestServerMultiPartResultMatchesEmbedded(t *testing.T) {
	_, db, addr := startServer(t, Config{}, engine.WithWorkers(4))
	c := dial(t, addr)
	if _, err := c.Exec(`CREATE TABLE t (id BIGINT, x DOUBLE, s VARCHAR, ok BOOLEAN)`); err != nil {
		t.Fatal(err)
	}
	row := func(i int) []types.Value {
		r := []types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) / 3), types.NewString(fmt.Sprintf("v%d\t\\N\n", i)), types.NewBool(i%2 == 0)}
		if i%7 == 0 {
			r[1+i%3] = types.NewNull(r[1+i%3].T)
		}
		if i%1000 == 0 {
			r[1] = types.NewFloat(math.Inf(-1))
		}
		return r
	}
	const n = 20000
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = row(i)
	}
	insertRows(t, db, "t", rows)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := n + w*1_000_000 + i
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 0.5, 'late', NULL)", id)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	const q = `SELECT id, x, s, ok FROM t WHERE id < 20000`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != n {
		t.Fatalf("embedded: %d rows, want %d", len(want.Rows), n)
	}
	for range 5 {
		got, err := c.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Columns, want.Columns) || !slices.Equal(got.Types, want.Types) {
			t.Fatalf("served header %v %v, embedded %v %v", got.Columns, got.Types, want.Columns, want.Types)
		}
		if len(got.Rows) != n {
			t.Fatalf("served %d rows, want %d", len(got.Rows), n)
		}
		for i := range got.Rows {
			if !slices.EqualFunc(got.Rows[i], want.Rows[i], sameValue) {
				t.Fatalf("row %d: served %v, embedded %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// sameValue compares two values field by field.
func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestServerQueryLogCountsServedRows: the query log counts a served
// SELECT's rows, which the server never pivots into value rows.
func TestServerQueryLogCountsServedRows(t *testing.T) {
	_, db, addr := startServer(t, Config{})
	c := dial(t, addr)
	if _, err := c.Exec(`CREATE TABLE t (n BIGINT, f DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	bulkLoad(t, db, "t", 5000)
	const q = `SELECT n, f FROM t WHERE n < 4321`
	if res, err := c.Exec(q); err != nil || len(res.Rows) != 4321 {
		t.Fatalf("served %v rows, %v", res, err)
	}
	log, err := db.Query(`SELECT rows FROM system.query_log WHERE statement = '` + q + `'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Rows) != 1 || log.Rows[0][0].I != 4321 {
		t.Fatalf("query log rows = %v, want [[4321]]", log.Rows)
	}
}
