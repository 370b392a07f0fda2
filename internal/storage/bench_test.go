package storage

import (
	"testing"

	"lambdadb/internal/types"
)

// BenchmarkTableScan reads every row of a 1M-row table of four DOUBLE
// columns through Table.Scan at the latest snapshot and reports ns/row:
// "clean" has no deletion, so every round is admitted by the stretch
// summary; "deleted" has one deleted row in every BatchSize stretch, so
// every round tests each row and gathers the survivors.
func BenchmarkTableScan(b *testing.B) {
	const rows = 1 << 20
	for _, deleted := range []bool{false, true} {
		name := "clean"
		if deleted {
			name = "deleted"
		}
		b.Run(name, func(b *testing.B) {
			s := NewStore()
			schema := types.Schema{{Name: "a", Type: types.Float64}, {Name: "b", Type: types.Float64},
				{Name: "c", Type: types.Float64}, {Name: "d", Type: types.Float64}}
			tbl, err := s.CreateTable("t", schema)
			if err != nil {
				b.Fatal(err)
			}
			batch := types.NewBatch(schema)
			for i := range rows {
				for _, c := range batch.Cols {
					c.AppendFloat(float64(i))
				}
			}
			tx := s.Begin()
			if err := tx.Insert(tbl, batch); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			if deleted {
				tx := s.Begin()
				for i := types.BatchSize / 2; i < rows; i += types.BatchSize {
					if err := tx.Delete(tbl, i); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			snap := s.Snapshot()
			b.ResetTimer()
			for range b.N {
				n := 0
				if err := tbl.Scan(snap, func(batch *types.Batch) error {
					n += batch.Len()
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if n != tbl.NumRows(snap) {
					b.Fatalf("scanned %d rows, %d visible", n, tbl.NumRows(snap))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
