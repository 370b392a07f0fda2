package exec

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// bigTable builds a table of n rows (k BIGINT, v DOUBLE) with k = i % mod.
func bigTable(t testing.TB, n, mod int) (*storage.Store, *storage.Table) {
	t.Helper()
	return scaledTable(t, n, mod, 1)
}

// scaledTable is bigTable with k = (i % mod) × scale: a scale past 2 spreads
// the keys too thin for the key table's direct-address mode.
func scaledTable(t testing.TB, n, mod int, scale int64) (*storage.Store, *storage.Table) {
	t.Helper()
	s := storage.NewStore()
	tbl, err := s.CreateTable("big", types.Schema{
		{Name: "k", Type: types.Int64},
		{Name: "v", Type: types.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	const chunk = 1 << 15
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		b := types.NewBatch(tbl.Schema())
		for i := lo; i < hi; i++ {
			b.Cols[0].AppendInt(int64(i%mod) * scale)
			b.Cols[1].AppendFloat(float64(i))
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// latestContext is NewContext reading every committed row: no test store
// takes writes while a plan reads it.
func latestContext() *Context {
	ctx := NewContext()
	ctx.Snapshot = math.MaxUint64
	return ctx
}

func colRef(name string, idx int, t types.Type) *expr.ColRef {
	return &expr.ColRef{Name: name, Index: idx, Typ: t}
}

// TestParallelAggregationMatchesSerial verifies the morsel-parallel
// aggregation path produces exactly the serial result.
func TestParallelAggregationMatchesSerial(t *testing.T) {
	s, tbl := bigTable(t, 100_000, 7)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	agg := &plan.Aggregate{
		Child:    scan,
		Keys:     []expr.Expr{colRef("k", 0, types.Int64)},
		KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{
			{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"},
			{Func: plan.AggSum, Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "sum(v)"},
			{Func: plan.AggMin, Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "min(v)"},
			{Func: plan.AggMax, Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "max(v)"},
		},
	}
	serialCtx := latestContext()
	serialCtx.Workers = 1
	serial, err := Run(agg, serialCtx)
	if err != nil {
		t.Fatal(err)
	}
	parCtx := latestContext()
	parCtx.Workers = 8
	parallel, err := Run(agg, parCtx)
	if err != nil {
		t.Fatal(err)
	}
	normalize := func(m *Materialized) [][]types.Value {
		rows := m.Rows()
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
		return rows
	}
	sr, pr := normalize(serial), normalize(parallel)
	if len(sr) != 7 || len(pr) != 7 {
		t.Fatalf("group counts: serial %d parallel %d", len(sr), len(pr))
	}
	for i := range sr {
		for j := range sr[i] {
			if !sr[i][j].Equal(pr[i][j]) {
				t.Errorf("row %d col %d: serial %v parallel %v", i, j, sr[i][j], pr[i][j])
			}
		}
	}
}

func TestSplitParallelCoversAllRows(t *testing.T) {
	s, tbl := bigTable(t, 50_000, 3)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	parts := splitParallel(scan, 4, latestContext())
	if len(parts) < 2 {
		t.Fatalf("expected multiple parts, got %d", len(parts))
	}
	ctx := latestContext()
	total := 0
	for _, p := range parts {
		m, err := materialize([]part{p}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		total += m.NumRows
	}
	if total != 50_000 {
		t.Errorf("parts cover %d rows, want 50000", total)
	}
}

func TestSplitParallelRefusesSmallTables(t *testing.T) {
	s, tbl := bigTable(t, 100, 3)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	if parts := splitParallel(scan, 8, latestContext()); parts != nil {
		t.Errorf("small table should not be split, got %d parts", len(parts))
	}
}

func TestSplitParallelRefusesNonPipelines(t *testing.T) {
	s, tbl := bigTable(t, 50_000, 3)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	// An aggregate is a pipeline breaker: its subtree must not be split.
	agg := &plan.Aggregate{Child: scan, Aggs: []plan.AggSpec{
		{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"}}}
	if parts := splitParallel(agg, 8, latestContext()); parts != nil {
		t.Error("aggregate should not be splittable")
	}
}

func TestLimitOffsetAcrossBatches(t *testing.T) {
	s, tbl := bigTable(t, 5000, 5000) // k = 0..4999 unique
	scan := plan.NewScan(tbl, "", s.Snapshot())
	lim := &plan.Limit{Child: scan, N: 10, Offset: 2040} // crosses batch boundary
	m, err := Run(lim, latestContext())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 10 {
		t.Fatalf("rows = %d", m.NumRows)
	}
	rows := m.Rows()
	if rows[0][0].I != 2040 || rows[9][0].I != 2049 {
		t.Errorf("offset slice wrong: first %v last %v", rows[0][0], rows[9][0])
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	// Left has duplicate keys; every pair must appear.
	s := storage.NewStore()
	mk := func(name string, keys []int64) *storage.Table {
		tbl, err := s.CreateTable(name, types.Schema{{Name: "k", Type: types.Int64}})
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		b := types.NewBatch(tbl.Schema())
		for _, k := range keys {
			b.AppendRow([]types.Value{types.NewInt(k)})
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	l := mk("l", []int64{1, 1, 2})
	r := mk("r", []int64{1, 2, 2, 3})
	join := &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(l, "", s.Snapshot()),
		R:         plan.NewScan(r, "", s.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	m, err := Run(join, latestContext())
	if err != nil {
		t.Fatal(err)
	}
	// 1 matches twice on the left × once on the right = 2; 2 matches
	// 1 × 2 = 2. Total 4.
	if m.NumRows != 4 {
		t.Errorf("join rows = %d, want 4", m.NumRows)
	}
}

// TestHashJoinOneToOneMatchesNestedLoop pins the probe's pass-through: when
// every row of a probe batch finds exactly one partner the batch's columns go
// into the output ungathered. The output must be what a nested loop over the
// two inputs gives — with every probe row matched once (the pass-through),
// with one build row missing, and with one build key held twice and another
// by no row (as many pairs as probe rows, yet not one each) — and with a
// residual on top of each.
func TestHashJoinOneToOneMatchesNestedLoop(t *testing.T) {
	sch := types.Schema{{Name: "k", Type: types.Int64}, {Name: "v", Type: types.Int64}}
	values := func(n int, key func(i int) int64) *plan.Values {
		v := &plan.Values{Sch: sch}
		for i := 0; i < n; i++ {
			v.Rows = append(v.Rows, []types.Value{types.NewInt(key(i)), types.NewInt(int64(i))})
		}
		return v
	}
	const n = 500
	probe := values(n, func(i int) int64 { return int64(i * 7 % n) }) // a permutation of 0..n-1
	evenV := &expr.BinOp{Op: expr.OpEq, Typ: types.Bool, R: &expr.Const{Val: types.NewInt(0)},
		L: &expr.BinOp{Op: expr.OpMod, Typ: types.Int64, L: colRef("v", 3, types.Int64), R: &expr.Const{Val: types.NewInt(2)}}}
	builds := map[string]*plan.Values{
		"one-each":    values(n, func(i int) int64 { return int64(i) }),
		"one-missing": values(n-1, func(i int) int64 { return int64(i) }),
		"one-twice":   values(n, func(i int) int64 { return int64(i % (n - 1)) }),
	}
	for name, build := range builds {
		for _, residual := range []expr.Expr{nil, evenV} {
			join := &plan.Join{Type: plan.InnerJoin, L: build, R: probe, EquiLeft: []int{0}, EquiRight: []int{0}, Residual: residual}
			var want [][]types.Value
			for _, p := range probe.Rows {
				for _, b := range build.Rows {
					if b[0].I == p[0].I && (residual == nil || p[1].I%2 == 0) {
						want = append(want, []types.Value{b[0], b[1], p[0], p[1]})
					}
				}
			}
			m, err := Run(join, latestContext())
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Rows(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, residual %v: %d rows, want %d; first rows %v, want %v",
					name, residual != nil, len(got), len(want), got[:min(3, len(got))], want[:3])
			}
		}
	}
}

// TestJoinOutputIsBounded: a join emits at most maxJoinPairs candidate
// pairs per batch, whatever its fan-out. A hash join, a cross join and a
// left join of 3,000 × 3,000 rows that all hold one key each emit their 9M
// rows in batches no larger, and every pair arrives.
func TestJoinOutputIsBounded(t *testing.T) {
	s, tbl := bigTable(t, 3000, 1)
	scan := func(alias string) plan.Node { return plan.NewScan(tbl, alias, s.Snapshot()) }
	for name, join := range map[string]*plan.Join{
		"hash":  {Type: plan.InnerJoin, L: scan("a"), R: scan("b"), EquiLeft: []int{0}, EquiRight: []int{0}},
		"cross": {Type: plan.CrossJoin, L: scan("a"), R: scan("b")},
		"left":  {Type: plan.LeftJoin, L: scan("a"), R: scan("b"), EquiLeft: []int{0}, EquiRight: []int{0}},
	} {
		op, err := Build(join)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(latestContext()); err != nil {
			t.Fatal(err)
		}
		rows, largest := 0, 0
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			rows, largest = rows+b.Len(), max(largest, b.Len())
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if rows != 3000*3000 || largest > maxJoinPairs {
			t.Errorf("%s join: %d rows, largest batch %d; want %d rows in batches of at most %d",
				name, rows, largest, 3000*3000, maxJoinPairs)
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	s := storage.NewStore()
	tbl, err := s.CreateTable("n", types.Schema{{Name: "k", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	b.AppendRow([]types.Value{types.NewNull(types.Int64)})
	b.AppendRow([]types.Value{types.NewInt(1)})
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	join := &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(tbl, "a", s.Snapshot()),
		R:         plan.NewScan(tbl, "b", s.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	m, err := Run(join, latestContext())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 1 { // only 1 = 1; NULL joins nothing
		t.Errorf("rows = %d, want 1", m.NumRows)
	}
}

func TestWorkingScanUnboundError(t *testing.T) {
	ws := &plan.WorkingScan{Name: "ghost", Sch: types.Schema{{Name: "x", Type: types.Int64}}}
	_, err := Run(ws, NewContext())
	if err == nil {
		t.Error("unbound working table should fail")
	}
}

func TestValuesOperator(t *testing.T) {
	v := &plan.Values{
		Sch: types.Schema{{Name: "x", Type: types.Int64}},
		Rows: [][]types.Value{
			{types.NewInt(1)}, {types.NewInt(2)},
		},
	}
	m, err := Run(v, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 2 {
		t.Errorf("rows = %d", m.NumRows)
	}
}

func TestDrainClosesOnError(t *testing.T) {
	// A filter whose predicate errors (modulo by zero) must propagate the
	// error from Run.
	s, tbl := bigTable(t, 100, 3)
	scan := plan.NewScan(tbl, "", s.Snapshot())
	pred := &expr.BinOp{Op: expr.OpEq, Typ: types.Bool,
		L: &expr.BinOp{Op: expr.OpMod, Typ: types.Int64,
			L: colRef("k", 0, types.Int64),
			R: &expr.Const{Val: types.NewInt(0)}},
		R: &expr.Const{Val: types.NewInt(0)}}
	f := &plan.Filter{Child: scan, Pred: pred}
	if _, err := Run(f, latestContext()); err == nil {
		t.Error("expected runtime error")
	}
}

func TestScanRangeRestriction(t *testing.T) {
	s, tbl := bigTable(t, 10_000, 10_000)
	scan := plan.NewScan(tbl, "big", s.Snapshot())
	m, err := materialize([]part{{node: scan, lo: 100, hi: 200}}, latestContext())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 100 {
		t.Errorf("range scan rows = %d, want 100", m.NumRows)
	}
	rows := m.Rows()
	if rows[0][0].I != 100 {
		t.Errorf("first row = %v", rows[0])
	}
}

// TestMaterializedRowsMatchBatchRow: the slab pivot gives every row as
// Batch.Row does, over every column type, NULLs and an Unknown column, and
// no row's capacity reaches into the next.
func TestMaterializedRowsMatchBatchRow(t *testing.T) {
	schema := types.Schema{
		{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String}, {Name: "b", Type: types.Bool},
		{Name: "u", Type: types.Unknown},
	}
	m := &Materialized{Schema: schema}
	var want [][]types.Value
	for _, n := range []int{3, 0, types.BatchSize, 5} {
		b := types.NewBatch(schema)
		for i := range n {
			row := []types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2),
				types.NewString(fmt.Sprint("s", i)), types.NewBool(i%2 == 0), types.NewNull(types.Unknown)}
			if i%3 == 0 {
				row[i%4] = types.NewNull(row[i%4].T)
			}
			b.AppendRow(row)
		}
		for i := range b.Len() {
			want = append(want, b.Row(i))
		}
		m.Append(b)
	}
	got := m.Rows()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rows() differs from Batch.Row")
	}
	for i, row := range got {
		if cap(row) != len(row) {
			t.Fatalf("row %d: capacity %d beyond its %d values", i, cap(row), len(row))
		}
	}
}
