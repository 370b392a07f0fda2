package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lambdadb/internal/exec"
	"lambdadb/internal/plan"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

func preparedDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE pts (id INT, x FLOAT, tag TEXT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5, 'tag%d')", i, i, i%7)
	}
	db.MustExec(sb.String())
	return db
}

func TestPrepareExecuteSelect(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()

	if _, err := s.Exec(`PREPARE q AS SELECT x FROM pts WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`EXECUTE q (42)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 42.5 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// Re-execution with a different argument reuses the cached template.
	res, err = s.Exec(`EXECUTE q (7)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 7.5 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if hits := db.Metrics().PlanCacheHits.Load(); hits == 0 {
		t.Errorf("expected plan cache hits, got 0")
	}
}

func TestPrepareDeclaredTypes(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()

	if _, err := s.Exec(`PREPARE q (INT) AS SELECT count(*) FROM pts WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`EXECUTE q (3)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// More declared types than parameters is an error.
	if _, err := s.Exec(`PREPARE r (INT, TEXT) AS SELECT * FROM pts WHERE id = $1`); err == nil {
		t.Error("excess declared types should fail")
	}
}

func TestPrepareErrors(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()

	db.MustExec(`PREPARE ok AS SELECT 1`) // autocommit session: fine
	if _, err := s.Exec(`EXECUTE nope`); err == nil {
		t.Error("EXECUTE of unknown name should fail")
	}
	if _, err := s.Exec(`PREPARE q AS SELECT * FROM no_such_table`); err == nil {
		t.Error("PREPARE should validate table names eagerly")
	}
	if _, err := s.Exec(`PREPARE q AS SELECT id FROM pts WHERE id = $2`); err == nil {
		t.Error("non-contiguous parameters should fail")
	}
	if _, err := s.Exec(`PREPARE q AS SELECT id FROM pts`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`PREPARE q AS SELECT 1`); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := s.Exec(`EXECUTE q (1)`); err == nil {
		t.Error("argument count mismatch should fail")
	}
	if _, err := s.Exec(`DEALLOCATE q`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`EXECUTE q`); err == nil {
		t.Error("deallocated statement should be gone")
	}
	if _, err := s.Exec(`DEALLOCATE q`); err == nil {
		t.Error("double DEALLOCATE should fail")
	}
	if _, err := s.Exec(`DEALLOCATE ALL`); err != nil {
		t.Fatal(err)
	}
	// Bare placeholders outside PREPARE are rejected.
	if _, err := s.Exec(`SELECT id FROM pts WHERE id = $1`); err == nil {
		t.Error("bare $1 should fail")
	}
}

func TestPreparedDML(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()

	if _, err := s.Exec(`PREPARE ins AS INSERT INTO pts VALUES ($1, $2, $3)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`EXECUTE ins (1000, 1.25, 'new')`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`PREPARE upd AS UPDATE pts SET tag = $2 WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`EXECUTE upd (1000, 'renamed')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	if _, err := s.Exec(`PREPARE del AS DELETE FROM pts WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	// The template is reusable: delete twice with different args.
	for _, id := range []int{1000, 199} {
		if _, err := s.Exec(fmt.Sprintf(`EXECUTE del (%d)`, id)); err != nil {
			t.Fatal(err)
		}
	}
	res = db.MustExec(`SELECT count(*) FROM pts`)
	if res.Rows[0][0].I != 199 {
		t.Fatalf("count = %+v", res.Rows)
	}
}

func TestExecutePreparedAPI(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()

	if _, err := s.Exec(`PREPARE q AS SELECT tag FROM pts WHERE id = $1`); err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecutePrepared(context.Background(), "q", []types.Value{types.NewInt(13)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "tag6" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if _, err := s.ExecutePrepared(context.Background(), "q", nil); err == nil {
		t.Error("missing argument should fail")
	}
	if got := s.Prepared(); len(got) != 1 || got[0] != "q" {
		t.Errorf("Prepared() = %v", got)
	}
}

// TestAdHocPlanCache exercises the text fast path: the same SELECT text run
// twice must hit the cache, and the hit must record zero parse+plan time.
func TestAdHocPlanCache(t *testing.T) {
	db := preparedDB(t)
	const q = `SELECT x FROM pts WHERE id = 17`
	r1 := db.MustExec(q)
	// Same statement, different surface spelling: comments and whitespace
	// normalize away, so this is the same cache key.
	r2 := db.MustExec("SELECT /* point */ x  FROM pts\nWHERE id = 17;")
	if db.Metrics().PlanCacheHits.Load() == 0 {
		t.Fatal("normalized-identical statement did not hit the plan cache")
	}
	if len(r1.Rows) != 1 || len(r2.Rows) != 1 || r1.Rows[0][0].F != r2.Rows[0][0].F {
		t.Fatalf("results differ: %+v vs %+v", r1.Rows, r2.Rows)
	}
}

// TestPlanCacheSeesNewData verifies a cached plan is not a stale snapshot:
// rows inserted after the plan was cached must be visible to later hits.
func TestPlanCacheSeesNewData(t *testing.T) {
	db := preparedDB(t)
	const q = `SELECT count(*) FROM pts`
	if got := db.MustExec(q).Rows[0][0].I; got != 200 {
		t.Fatalf("count = %d", got)
	}
	db.MustExec(`INSERT INTO pts VALUES (500, 0.5, 'late')`)
	if got := db.MustExec(q).Rows[0][0].I; got != 201 {
		t.Fatalf("count after insert = %d (stale snapshot served from cache?)", got)
	}
}

// TestPlanCacheInvalidation: DDL and ANALYZE drop cached plans.
func TestPlanCacheInvalidation(t *testing.T) {
	db := preparedDB(t)
	const q = `SELECT count(*) FROM pts WHERE id = 5`
	db.MustExec(q)
	db.MustExec(q) // hit
	hits := db.Metrics().PlanCacheHits.Load()
	if hits == 0 {
		t.Fatal("no hit before DDL")
	}
	db.MustExec(`CREATE INDEX pts_id ON pts(id)`)
	db.MustExec(q) // must miss: the catalog changed
	if got := db.Metrics().PlanCacheInvalidations.Load(); got == 0 {
		t.Fatal("CREATE INDEX did not invalidate the cached plan")
	}
	db.MustExec(q)
	if db.Metrics().PlanCacheHits.Load() <= hits {
		t.Fatal("rebuilt plan was not re-cached")
	}
	inv := db.Metrics().PlanCacheInvalidations.Load()
	db.MustExec(`ANALYZE pts`)
	db.MustExec(q)
	if db.Metrics().PlanCacheInvalidations.Load() <= inv {
		t.Fatal("ANALYZE did not invalidate the cached plan")
	}
}

// TestPlanCacheUncacheableSystem: system.* scans materialize at build time
// and must never be served from the cache.
func TestPlanCacheUncacheableSystem(t *testing.T) {
	db := preparedDB(t)
	const q = `SELECT count(*) FROM system.query_log`
	n1 := db.MustExec(q).Rows[0][0].I
	n2 := db.MustExec(q).Rows[0][0].I
	if n2 <= n1 {
		t.Fatalf("system.query_log frozen by the plan cache: %d then %d", n1, n2)
	}
}

func TestSystemPlanCacheTable(t *testing.T) {
	db := preparedDB(t)
	db.MustExec(`SELECT x FROM pts WHERE id = 1`)
	db.MustExec(`SELECT x FROM pts WHERE id = 1`)
	res := db.MustExec(`SELECT statement, hits FROM system.plan_cache`)
	if len(res.Rows) == 0 {
		t.Fatal("system.plan_cache is empty")
	}
	found := false
	for _, r := range res.Rows {
		if strings.Contains(r[0].S, "WHERE id = 1") && r[1].I >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cached statement missing from system.plan_cache: %+v", res.Rows)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := Open(WithPlanCacheSize(0))
	db.MustExec(`CREATE TABLE t (x INT)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	const q = `SELECT x FROM t`
	db.MustExec(q)
	db.MustExec(q)
	if db.Metrics().PlanCacheHits.Load() != 0 {
		t.Error("disabled cache should never hit")
	}
	// Prepared statements still work, just without the shared cache.
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(`PREPARE q AS SELECT x FROM t WHERE x = $1`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`EXECUTE q (1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

// TestPreparedInTransaction: EXECUTE under BEGIN sees the transaction
// snapshot, not the latest committed state.
func TestPreparedInTransaction(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(`PREPARE q AS SELECT count(*) FROM pts`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO pts VALUES (900, 1.0, 'outside')`)
	res, err := s.Exec(`EXECUTE q`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 200 {
		t.Fatalf("transaction snapshot leaked: count = %d", res.Rows[0][0].I)
	}
	if _, err := s.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Exec(`EXECUTE q`)
	if res.Rows[0][0].I != 201 {
		t.Fatalf("post-commit count = %d", res.Rows[0][0].I)
	}
}

// TestPlanCacheDDLRace is the chaos test: concurrent cached EXECUTEs racing
// DROP/CREATE cycles must never serve a stale plan — a query that succeeds
// must reflect a schema that existed, and the distinctive marker rows of a
// dropped generation must never appear after its drop completes.
func TestPlanCacheDDLRace(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE r (gen INT, v INT)`)
	db.MustExec(`INSERT INTO r VALUES (0, 0)`)

	const q = `SELECT gen, count(*) FROM r GROUP BY gen`
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: drop and recreate the table, each generation tagged.
	var genMu sync.Mutex
	minGen := 0 // lowest generation still allowed to be visible
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; gen <= 50; gen++ {
			db.MustExec(`DROP TABLE r`)
			db.MustExec(`CREATE TABLE r (gen INT, v INT)`)
			db.MustExec(fmt.Sprintf(`INSERT INTO r VALUES (%d, %d)`, gen, gen))
			genMu.Lock()
			minGen = gen
			genMu.Unlock()
		}
		close(stop)
	}()

	// Readers: run the same statement text in a loop. Failures are fine
	// (the table vanishes mid-plan); stale rows are not.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				genMu.Lock()
				floor := minGen
				genMu.Unlock()
				res, err := db.Exec(q)
				if err != nil {
					continue // dropped under us: acceptable
				}
				for _, row := range res.Rows {
					if row[0].I < int64(floor) {
						t.Errorf("stale plan served: saw generation %d after generation %d was current", row[0].I, floor)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPreparedDMLBindsLikeSelect: for one WHERE and one argument, the rows a
// prepared SELECT counts are the rows a prepared UPDATE and a prepared
// DELETE touch — with the parameter type declared or inferred, and with a
// DOUBLE argument for the BIGINT column, which binds as that BIGINT.
func TestPreparedDMLBindsLikeSelect(t *testing.T) {
	for _, tc := range []struct {
		decl, arg string
		want      int64
	}{
		{"(INT)", "5.9", 1},
		{"", "2.7", 1},
		{"(INT)", "7", 1},
		{"", "8", 1},
		{"(DOUBLE)", "9.5", 0},
	} {
		db := preparedDB(t)
		s := db.NewSession()
		affected := func(stmt string) int64 {
			t.Helper()
			if _, err := s.Exec(fmt.Sprintf(`PREPARE p %s AS %s WHERE id = $1`, tc.decl, stmt)); err != nil {
				t.Fatal(err)
			}
			res, err := s.Exec(`EXECUTE p (` + tc.arg + `)`)
			if err != nil {
				t.Fatalf("%s %s (%s): %v", tc.decl, stmt, tc.arg, err)
			}
			if _, err := s.Exec(`DEALLOCATE p`); err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(stmt, "SELECT") {
				return res.Rows[0][0].I
			}
			return int64(res.Affected)
		}
		counted := affected(`SELECT count(*) FROM pts`)
		updated := affected(`UPDATE pts SET tag = 'bound'`)
		deleted := affected(`DELETE FROM pts`)
		if counted != tc.want || updated != counted || deleted != counted {
			t.Errorf("PREPARE %s, EXECUTE (%s): SELECT counts %d (want %d), UPDATE touches %d, DELETE touches %d",
				tc.decl, tc.arg, counted, tc.want, updated, deleted)
		}
		s.Close()
	}
}

// TestPreparedAssignmentTakesColumnType: an untyped $N assigned to a column
// binds as that column's type, in SET as in INSERT VALUES.
func TestPreparedAssignmentTakesColumnType(t *testing.T) {
	db := preparedDB(t)
	s := db.NewSession()
	defer s.Close()
	for _, q := range []string{
		`PREPARE ins AS INSERT INTO pts VALUES ($1, $2, $3)`,
		`PREPARE upd AS UPDATE pts SET x = $2 WHERE id = $1`,
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ExecutePrepared(context.Background(), "ins",
		[]types.Value{types.NewFloat(500.7), types.NewInt(3), types.NewString("n")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePrepared(context.Background(), "upd",
		[]types.Value{types.NewFloat(7.2), types.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec(`SELECT id, x FROM pts WHERE id = 500 OR id = 7 ORDER BY id`)
	if len(res.Rows) != 2 || res.Rows[0][1].T != types.Float64 || res.Rows[0][1].F != 9 ||
		res.Rows[1][0].T != types.Int64 || res.Rows[1][1].F != 3 {
		t.Errorf("rows = %v, want [7 9] [500 3]", res.Rows)
	}
}

// TestCachedTemplateRunsAsIs: eight sessions, each in its own transaction,
// EXECUTE one cached join + GROUP BY template at 8 workers with arguments
// of their own while a writer commits. Every result equals the same query
// with the argument inlined, in the same transaction; and afterwards the
// template is exactly what a fresh build of its text produces — no
// execution wrote into it.
func TestCachedTemplateRunsAsIs(t *testing.T) {
	db := Open(WithWorkers(8))
	loadParallelFixture(t, db)
	const text = `SELECT dim.k, count(*), sum(fact.v) FROM fact JOIN dim ON fact.k = dim.k WHERE fact.v < %s GROUP BY dim.k`
	prep := db.NewSession()
	defer prep.Close()
	if _, err := prep.Exec(`PREPARE q AS ` + fmt.Sprintf(text, "$1")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		// Each UPDATE replaces rows without changing how many there are.
		for k := 0; ; k++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf(`UPDATE fact SET v = v + 1 WHERE k = %d`, k%50)); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			if _, err := s.Exec(`PREPARE q AS ` + fmt.Sprintf(text, "$1")); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Exec(`BEGIN`); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 3; i++ {
				arg := fmt.Sprint(5_000*(g+1) + 1_000*i)
				got, err := s.Exec(`EXECUTE q (` + arg + `)`)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := s.Exec(fmt.Sprintf(text, arg))
				if err != nil {
					t.Error(err)
					return
				}
				normalizeRows(got.Rows)
				normalizeRows(want.Rows)
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("session %d, $1 = %s: EXECUTE gives %d rows, the inlined query %d, or their values differ",
						g, arg, len(got.Rows), len(want.Rows))
				}
			}
			if _, err := s.Exec(`COMMIT`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	// The template split into morsels: the fact scan ran as several parts.
	prep.CollectStats(true)
	if _, err := prep.Exec(`EXECUTE q (30000)`); err != nil {
		t.Fatal(err)
	}
	var factScan *exec.OpStats
	var find func(*exec.OpStats)
	find = func(n *exec.OpStats) {
		if n.Name == "Scan fact" {
			factScan = n
		}
		for _, c := range n.Children {
			find(c)
		}
	}
	find(prep.LastStats())
	if factScan == nil || factScan.Instances < 2 {
		t.Fatalf("fact scan stats %+v: want it split into morsels", factScan)
	}

	key, _ := sql.NormalizeStatement(fmt.Sprintf(text, "$1"))
	var cached plan.Node
	for _, e := range db.planCache.Snapshot() {
		if e.Key == key {
			cached = e.Plan
		}
	}
	ast, err := sql.ParseOne(fmt.Sprintf(text, "$1"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := prep.newBuilder().BuildSelect(ast.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if cached == nil || !reflect.DeepEqual(cached, fresh) {
		t.Errorf("the cached template differs from a fresh build of its text:\n%s\nfresh:\n%s",
			plan.ExplainTree(cached), plan.ExplainTree(fresh))
	}
}
