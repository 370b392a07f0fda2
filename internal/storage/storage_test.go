package storage

import (
	"errors"
	"sync"
	"testing"

	"lambdadb/internal/types"
)

func testSchema() types.Schema {
	return types.Schema{{Name: "id", Type: types.Int64}, {Name: "v", Type: types.Float64}}
}

func insertRows(t *testing.T, s *Store, tbl *Table, rows [][2]float64) {
	t.Helper()
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	for _, r := range rows {
		b.AppendRow([]types.Value{types.NewInt(int64(r[0])), types.NewFloat(r[1])})
	}
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, tbl *Table, snap uint64) [][]types.Value {
	t.Helper()
	var out [][]types.Value
	err := tbl.Scan(snap, func(b *types.Batch) error {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCreateInsertScan(t *testing.T) {
	s := NewStore()
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, s, tbl, [][2]float64{{1, 1.5}, {2, 2.5}, {3, 3.5}})
	rows := scanAll(t, tbl, s.Snapshot())
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[1][0].I != 2 || rows[1][1].F != 2.5 {
		t.Errorf("row 1 = %v", rows[1])
	}
	if tbl.NumRows(s.Snapshot()) != 3 {
		t.Errorf("NumRows = %d", tbl.NumRows(s.Snapshot()))
	}
}

func TestCreateDuplicateTable(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err == nil {
		t.Error("duplicate create should fail")
	}
}

func TestDropTable(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err == nil {
		t.Error("dropping a missing table should fail")
	}
	if _, err := s.Resolve("t"); err == nil {
		t.Error("resolve after drop should fail")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	insertRows(t, s, tbl, [][2]float64{{1, 1}})
	snapBefore := s.Snapshot()

	// A later insert must be invisible to the earlier snapshot.
	insertRows(t, s, tbl, [][2]float64{{2, 2}})
	if got := len(scanAll(t, tbl, snapBefore)); got != 1 {
		t.Errorf("old snapshot sees %d rows, want 1", got)
	}
	if got := len(scanAll(t, tbl, s.Snapshot())); got != 2 {
		t.Errorf("new snapshot sees %d rows, want 2", got)
	}
}

func TestUncommittedInvisible(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	b.AppendRow([]types.Value{types.NewInt(1), types.NewFloat(1)})
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	// Not committed yet: no snapshot can see it.
	if got := len(scanAll(t, tbl, s.Snapshot())); got != 0 {
		t.Errorf("uncommitted rows visible: %d", got)
	}
	tx.Rollback()
	if err := tx.Commit(); err == nil {
		t.Error("commit after rollback should fail")
	}
	if got := len(scanAll(t, tbl, s.Snapshot())); got != 0 {
		t.Errorf("rolled-back rows visible: %d", got)
	}
}

func TestDeleteVisibility(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	insertRows(t, s, tbl, [][2]float64{{1, 1}, {2, 2}})
	snapBefore := s.Snapshot()

	tx := s.Begin()
	if err := tx.Delete(tbl, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if got := len(scanAll(t, tbl, snapBefore)); got != 2 {
		t.Errorf("pre-delete snapshot sees %d rows, want 2", got)
	}
	rows := scanAll(t, tbl, s.Snapshot())
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("post-delete rows = %v", rows)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	insertRows(t, s, tbl, [][2]float64{{1, 1}})

	tx1 := s.Begin()
	tx2 := s.Begin()
	if err := tx1.Delete(tbl, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(tbl, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := tx2.Commit()
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("second delete committed: err = %v", err)
	}
}

func TestScanWithRowIDs(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	insertRows(t, s, tbl, [][2]float64{{1, 1}, {2, 2}, {3, 3}})
	tx := s.Begin()
	if err := tx.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var ids []int
	c := tbl.Cursor(s.Snapshot(), 0, -1)
	for b, rowIDs := c.Next(); b != nil; b, rowIDs = c.Next() {
		ids = append(ids, rowIDs...)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("row ids = %v, want [0 2]", ids)
	}
}

func TestScanRangeMorsels(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	const n = 5000
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	for i := 0; i < n; i++ {
		b.AppendRow([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i))})
	}
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	// Scan two disjoint ranges and confirm they partition the table.
	count := 0
	half := tbl.PhysicalRows() / 2
	for _, r := range [][2]int{{0, half}, {half, tbl.PhysicalRows()}} {
		c := tbl.Cursor(snap, r[0], r[1])
		for b, _ := c.Next(); b != nil; b, _ = c.Next() {
			count += b.Len()
		}
	}
	if count != n {
		t.Errorf("morsel scan counted %d rows, want %d", count, n)
	}
}

func TestConcurrentInserters(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := s.Begin()
				b := types.NewBatch(tbl.Schema())
				b.AppendRow([]types.Value{types.NewInt(int64(w*perWorker + i)), types.NewFloat(0)})
				if err := tx.Insert(tbl, b); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tbl.NumRows(s.Snapshot()); got != workers*perWorker {
		t.Errorf("NumRows = %d, want %d", got, workers*perWorker)
	}
	// All ids must be distinct and complete.
	seen := map[int64]bool{}
	for _, r := range scanAll(t, tbl, s.Snapshot()) {
		seen[r[0].I] = true
	}
	if len(seen) != workers*perWorker {
		t.Errorf("distinct ids = %d, want %d", len(seen), workers*perWorker)
	}
}

func TestInsertColumnCountMismatch(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable("t", testSchema())
	tx := s.Begin()
	bad := types.NewBatch(types.Schema{{Name: "only", Type: types.Int64}})
	bad.AppendRow([]types.Value{types.NewInt(1)})
	if err := tx.Insert(tbl, bad); err == nil {
		t.Error("insert with wrong arity should fail")
	}
}
