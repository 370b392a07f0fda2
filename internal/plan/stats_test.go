package plan

import (
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// statsTable creates a single-column BIGINT table and inserts the given
// values.
func statsTable(t *testing.T, vals []types.Value) (*storage.Store, *storage.Table) {
	t.Helper()
	s := storage.NewStore()
	tbl, err := s.CreateTable("st", types.Schema{{Name: "a", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) > 0 {
		tx := s.Begin()
		b := types.NewBatch(tbl.Schema())
		for _, v := range vals {
			b.AppendRow([]types.Value{v})
		}
		if err := tx.Insert(tbl, b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return s, tbl
}

func TestCollectStatsEmptyTable(t *testing.T) {
	s, tbl := statsTable(t, nil)
	ts := CollectTableStats(tbl, s.Snapshot())
	if ts.RowCount != 0 {
		t.Fatalf("RowCount = %d, want 0", ts.RowCount)
	}
	cs := ts.Cols[0]
	if cs.NDV != 0 || !cs.Min.Null || !cs.Max.Null || len(cs.Hist) != 0 {
		t.Fatalf("empty table stats = %+v", cs)
	}
	// No divisions by zero; estimates are simply zero.
	if sel := ts.EqSelectivity("a"); sel != 0 {
		t.Fatalf("EqSelectivity = %v, want 0", sel)
	}
	lo := types.NewInt(1)
	if sel := ts.RangeSelectivity("a", &lo, nil); sel != 0 {
		t.Fatalf("RangeSelectivity = %v, want 0", sel)
	}
}

func TestCollectStatsAllNullColumn(t *testing.T) {
	vals := make([]types.Value, 50)
	for i := range vals {
		vals[i] = types.NewNull(types.Int64)
	}
	s, tbl := statsTable(t, vals)
	ts := CollectTableStats(tbl, s.Snapshot())
	cs := ts.Cols[0]
	if cs.NullCount != 50 || cs.NDV != 0 || !cs.Min.Null || !cs.Max.Null {
		t.Fatalf("all-NULL stats = %+v", cs)
	}
	if sel := ts.EqSelectivity("a"); sel != 0 {
		t.Fatalf("EqSelectivity = %v, want 0 (no non-NULL rows match equality)", sel)
	}
}

func TestCollectStatsSingleValueColumn(t *testing.T) {
	vals := make([]types.Value, 40)
	for i := range vals {
		vals[i] = types.NewInt(7)
	}
	s, tbl := statsTable(t, vals)
	ts := CollectTableStats(tbl, s.Snapshot())
	cs := ts.Cols[0]
	if cs.NDV != 1 {
		t.Fatalf("NDV = %d, want 1", cs.NDV)
	}
	if cs.Min.I != 7 || cs.Max.I != 7 {
		t.Fatalf("Min/Max = %v/%v, want 7/7", cs.Min, cs.Max)
	}
	if sel := ts.EqSelectivity("a"); sel != 1 {
		t.Fatalf("EqSelectivity = %v, want 1", sel)
	}
	// A range containing the single point matches everything; min==max must
	// not divide by a zero width.
	lo, hi := types.NewInt(0), types.NewInt(10)
	if sel := ts.RangeSelectivity("a", &lo, &hi); sel != 1 {
		t.Fatalf("RangeSelectivity = %v, want 1", sel)
	}
	// A disjoint range matches nothing.
	lo2 := types.NewInt(100)
	if sel := ts.RangeSelectivity("a", &lo2, nil); sel != 0 {
		t.Fatalf("disjoint RangeSelectivity = %v, want 0", sel)
	}
}

func TestCollectStatsUniformColumn(t *testing.T) {
	vals := make([]types.Value, 100)
	for i := range vals {
		vals[i] = types.NewInt(int64(i))
	}
	s, tbl := statsTable(t, vals)
	ts := CollectTableStats(tbl, s.Snapshot())
	cs := ts.Cols[0]
	if cs.NDV != 100 {
		t.Fatalf("NDV = %d, want 100", cs.NDV)
	}
	if cs.Min.I != 0 || cs.Max.I != 99 {
		t.Fatalf("Min/Max = %v/%v, want 0/99", cs.Min, cs.Max)
	}
	if len(cs.Hist) != histBuckets {
		t.Fatalf("histogram size = %d, want %d", len(cs.Hist), histBuckets)
	}
	if sel := ts.EqSelectivity("a"); sel != 0.01 {
		t.Fatalf("EqSelectivity = %v, want 0.01", sel)
	}
	// ~10% of rows fall in [0, 9]; the histogram estimate should be close.
	lo, hi := types.NewInt(0), types.NewInt(9)
	if sel := ts.RangeSelectivity("a", &lo, &hi); sel < 0.03 || sel > 0.25 {
		t.Fatalf("RangeSelectivity([0,9]) = %v, want ~0.1", sel)
	}
	// Unbounded range covers everything.
	if sel := ts.RangeSelectivity("a", nil, nil); sel != 1 {
		t.Fatalf("RangeSelectivity(nil,nil) = %v, want 1", sel)
	}
}

func TestCollectStatsMixedNulls(t *testing.T) {
	var vals []types.Value
	for i := 0; i < 30; i++ {
		vals = append(vals, types.NewInt(int64(i%3)))
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, types.NewNull(types.Int64))
	}
	s, tbl := statsTable(t, vals)
	ts := CollectTableStats(tbl, s.Snapshot())
	cs := ts.Cols[0]
	if cs.NullCount != 10 || cs.NDV != 3 {
		t.Fatalf("NullCount/NDV = %d/%d, want 10/3", cs.NullCount, cs.NDV)
	}
	// Equality matches 30/40 non-NULL rows spread over 3 values: 0.25.
	if sel := ts.EqSelectivity("a"); sel != 0.25 {
		t.Fatalf("EqSelectivity = %v, want 0.25", sel)
	}
}

func TestStatsUnknownColumnFallsBack(t *testing.T) {
	s, tbl := statsTable(t, []types.Value{types.NewInt(1)})
	ts := CollectTableStats(tbl, s.Snapshot())
	if sel := ts.EqSelectivity("nope"); sel != 0.1 {
		t.Fatalf("unknown column EqSelectivity = %v, want heuristic 0.1", sel)
	}
	if sel := ts.RangeSelectivity("nope", nil, nil); sel != 0.3 {
		t.Fatalf("unknown column RangeSelectivity = %v, want heuristic 0.3", sel)
	}
}
