package main

import (
	"fmt"
	"math/rand"

	"lambdadb/internal/engine"
	"lambdadb/internal/types"
)

// kvData is the generated content of kv(id, grp, x, s): ids are 0..n-1,
// grp = id % 100, s = 'v<id>', x is drawn from the seed. prefixX[i] is the
// sum of x[0:i], the reference for range checksums.
type kvData struct {
	n       int
	x       []float64
	prefixX []float64
}

func genKV(n int, seed int64) *kvData {
	rng := rand.New(rand.NewSource(seed))
	kv := &kvData{n: n, x: make([]float64, n), prefixX: make([]float64, n+1)}
	for i := range kv.x {
		kv.x[i] = rng.Float64() * 1000
		kv.prefixX[i+1] = kv.prefixX[i] + kv.x[i]
	}
	return kv
}

func kvString(id int64) string { return fmt.Sprintf("v%d", id) }

// loadKV creates kv, bulk-loads it through storage transactions — which a
// durable engine logs and a primary ships like any other commit — then
// builds the hash index on id and analyzes the table.
func loadKV(db *engine.DB, kv *kvData) error {
	if _, err := db.Exec("CREATE TABLE kv (id BIGINT, grp BIGINT, x DOUBLE, s TEXT)"); err != nil {
		return err
	}
	store := db.Store()
	tbl, err := store.Table("kv")
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	const chunk = 1 << 16
	for lo := 0; lo < kv.n; lo += chunk {
		hi := min(lo+chunk, kv.n)
		b := types.NewBatch(schema)
		for i := lo; i < hi; i++ {
			b.Cols[0].AppendInt(int64(i))
			b.Cols[1].AppendInt(int64(i % 100))
			b.Cols[2].AppendFloat(kv.x[i])
			b.Cols[3].AppendString(kvString(int64(i)))
		}
		tx := store.Begin()
		if err := tx.Insert(tbl, b); err != nil {
			tx.Rollback()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	if _, err := db.Exec("CREATE INDEX kv_id ON kv(id) USING HASH"); err != nil {
		return err
	}
	_, err = db.Exec("ANALYZE kv")
	return err
}
