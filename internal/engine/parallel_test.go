package engine

import (
	"sort"
	"testing"

	"lambdadb/internal/types"
)

// loadParallelFixture bulk-loads deterministic tables big enough to cross
// the executor's morsel-split threshold: fact (60k rows, duplicated keys,
// NULLs sprinkled) and dim (30k rows).
func loadParallelFixture(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(`CREATE TABLE fact (k BIGINT, v DOUBLE)`)
	db.MustExec(`CREATE TABLE dim (k BIGINT, w DOUBLE)`)
	fill := func(name string, n, mod, nullEvery int) {
		tbl, err := db.Store().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Store().Begin()
		const chunk = 1 << 14
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			b := types.NewBatch(tbl.Schema())
			for i := lo; i < hi; i++ {
				if nullEvery > 0 && i%nullEvery == 0 {
					b.Cols[0].AppendNull()
				} else {
					b.Cols[0].AppendInt(int64(i % mod))
				}
				b.Cols[1].AppendFloat(float64(i))
			}
			if err := tx.Insert(tbl, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fill("fact", 60_000, 20_000, 101)
	fill("dim", 30_000, 20_000, 0)
}

// TestParallelQueriesMatchSerial runs the same SQL on a Workers=1 and a
// Workers=8 database and demands identical (normalized) results across
// join-heavy, sort-heavy, top-k, and recursive workloads.
func TestParallelQueriesMatchSerial(t *testing.T) {
	serialDB := Open(WithWorkers(1))
	parallelDB := Open(WithWorkers(8))
	loadParallelFixture(t, serialDB)
	loadParallelFixture(t, parallelDB)

	queries := []struct {
		name    string
		sql     string
		ordered bool
	}{
		{"hash-join", `SELECT fact.k, fact.v, dim.w FROM fact JOIN dim ON fact.k = dim.k`, false},
		{"left-join-nulls", `SELECT fact.k, dim.w FROM fact LEFT JOIN dim ON fact.k = dim.k WHERE fact.v < 5000`, false},
		{"join-agg", `SELECT dim.k, count(*), sum(fact.v) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.k`, false},
		{"full-sort", `SELECT k, v FROM fact ORDER BY v DESC`, true},
		{"sort-two-keys", `SELECT k, v FROM fact ORDER BY k, v DESC`, true},
		{"topk-limit-offset", `SELECT k, v FROM fact ORDER BY v DESC LIMIT 20 OFFSET 7`, true},
		{"sort-over-join", `SELECT fact.v, dim.w FROM fact JOIN dim ON fact.k = dim.k ORDER BY fact.v LIMIT 50`, true},
		{"recursive-cte", `WITH RECURSIVE walk (v, depth) AS (
			SELECT 1, 0
			UNION ALL
			SELECT fact.k, walk.depth + 1 FROM walk JOIN fact ON walk.v = fact.k WHERE walk.depth < 2
		) SELECT count(*) FROM walk`, true},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			sr, err := serialDB.Query(q.sql)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			pr, err := parallelDB.Query(q.sql)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if len(sr.Rows) != len(pr.Rows) {
				t.Fatalf("row counts differ: serial %d parallel %d", len(sr.Rows), len(pr.Rows))
			}
			a, b := sr.Rows, pr.Rows
			if !q.ordered {
				normalizeRows(a)
				normalizeRows(b)
			}
			for i := range a {
				for j := range a[i] {
					av, bv := a[i][j], b[i][j]
					if av.Null != bv.Null || (!av.Null && !av.Equal(bv)) {
						t.Fatalf("row %d col %d: serial %v parallel %v", i, j, av, bv)
					}
				}
			}
		})
	}
}

// normalizeRows sorts rows into a canonical total order (NULLs first).
func normalizeRows(rows [][]types.Value) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := range a {
			if a[c].Null != b[c].Null {
				return a[c].Null
			}
			if a[c].Null {
				continue
			}
			if cmp := a[c].Compare(b[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// TestDenseAndSparseKeysParallelMatchSerial: GROUP BY, DISTINCT, UNION and
// join give the same rows in the same order at Workers=1 and Workers=8 over
// dense BIGINT keys (addressed directly), sparse ones (k × 1000003, hashed),
// and keys that turn sparse part-way (a table that switches mode in some
// parts only, merged with dense ones).
func TestDenseAndSparseKeysParallelMatchSerial(t *testing.T) {
	serialDB := Open(WithWorkers(1))
	parallelDB := Open(WithWorkers(8))
	loadParallelFixture(t, serialDB)
	loadParallelFixture(t, parallelDB)
	for name, sql := range map[string]string{
		"group-dense":     `SELECT k, count(*), sum(v), min(v) FROM fact GROUP BY k`,
		"group-sparse":    `SELECT k * 1000003, count(*), sum(v) FROM fact GROUP BY k * 1000003`,
		"group-switches":  `SELECT g, count(*) FROM (SELECT CASE WHEN v < 45000 THEN k ELSE k * 1000003 END AS g FROM fact) t GROUP BY g`,
		"distinct-dense":  `SELECT DISTINCT k FROM fact`,
		"distinct-sparse": `SELECT DISTINCT k * 1000003 FROM fact`,
		"union":           `SELECT k FROM fact UNION SELECT k * 1000003 FROM dim`,
		"join-dense":      `SELECT fact.k, fact.v, dim.w FROM fact JOIN dim ON fact.k = dim.k`,
		"join-sparse": `SELECT f.s, f.v, d.w FROM (SELECT k * 1000003 AS s, v FROM fact) f
			JOIN (SELECT k * 1000003 AS s, w FROM dim) d ON f.s = d.s`,
		"join-group-dense": `SELECT dim.k, count(*), sum(fact.v) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.k`,
	} {
		t.Run(name, func(t *testing.T) {
			sr, err := serialDB.Query(sql)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			pr, err := parallelDB.Query(sql)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if len(sr.Rows) < 1000 {
				t.Fatalf("%d rows; test data broken", len(sr.Rows))
			}
			if len(sr.Rows) != len(pr.Rows) {
				t.Fatalf("row counts differ: serial %d parallel %d", len(sr.Rows), len(pr.Rows))
			}
			for i := range sr.Rows {
				for j := range sr.Rows[i] {
					if av, bv := sr.Rows[i][j], pr.Rows[i][j]; av.Null != bv.Null || (!av.Null && !av.Equal(bv)) {
						t.Fatalf("row %d col %d: serial %v parallel %v", i, j, av, bv)
					}
				}
			}
		})
	}
}
