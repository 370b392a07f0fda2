package storage

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lambdadb/internal/catalog"
	"lambdadb/internal/types"
)

// keyMod spreads the cursor tests' keys: row i is inserted with key i % keyMod.
const keyMod = 61

// cursorTable creates t(id BIGINT, v DOUBLE) with an ordered and a hash
// index on id, holding n rows whose id is i % keyMod and whose v is the
// row's physical position.
func cursorTable(t *testing.T, n int) (*Store, *Table) {
	t.Helper()
	s := NewStore()
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []IndexDef{{Name: "t_ord", Table: "t", Column: "id", Kind: OrderedIndex},
		{Name: "t_hash", Table: "t", Column: "id", Kind: HashIndex}} {
		if err := s.CreateIndex(def); err != nil {
			t.Fatal(err)
		}
	}
	appendPositions(t, s, tbl, n)
	return s, tbl
}

// appendPositions commits n rows at the tail, each with v = its position.
func appendPositions(t *testing.T, s *Store, tbl *Table, n int) {
	t.Helper()
	base := tbl.PhysicalRows()
	b := types.NewBatch(tbl.Schema())
	for i := base; i < base+n; i++ {
		b.AppendRow([]types.Value{types.NewInt(int64(i % keyMod)), types.NewFloat(float64(i))})
	}
	tx := s.Begin()
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// drain pulls c to the end and returns the row ids it handed out. Every
// batch must hold 1 to BatchSize rows, one id per row, and each row must
// equal the table's physical row of that id.
func drain(t *testing.T, tbl *Table, c catalog.Cursor) []int {
	t.Helper()
	var out []int
	for b := c.Next(); b != nil; b = c.Next() {
		ids := c.RowIDs()
		if n := b.Len(); n == 0 || n > types.BatchSize || len(ids) != n {
			t.Fatalf("batch of %d rows with %d row ids", n, len(ids))
		}
		tbl.mu.RLock()
		for j, id := range ids {
			if b.Cols[0].Ints[j] != tbl.cols[0].Ints[id] || b.Cols[1].Floats[j] != tbl.cols[1].Floats[id] {
				t.Errorf("row %d of a batch is not physical row %d", j, id)
			}
		}
		tbl.mu.RUnlock()
		out = append(out, ids...)
	}
	return out
}

// model is the row-by-row visibility rule: the physical rows created at or
// before snap and not deleted at or before it, whose key keep admits.
func model(tbl *Table, snap uint64, keep func(key int64) bool) []int {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	var out []int
	for i, c := range tbl.createdAt {
		if d := tbl.deletedAt[i]; c <= snap && (d == 0 || d > snap) && keep(tbl.cols[0].Ints[i]) {
			out = append(out, i)
		}
	}
	return out
}

func anyKey(int64) bool { return true }

func ptr(v int64) *types.Value { p := types.NewInt(v); return &p }

// indexProbes are the index cursors every snapshot is checked with, each
// with the keys it must return.
var indexProbes = []struct {
	index string
	probe catalog.IndexProbe
	keep  func(int64) bool
}{
	{"t_ord", catalog.IndexProbe{Eq: ptr(0)}, func(k int64) bool { return k == 0 }},
	{"t_hash", catalog.IndexProbe{Eq: ptr(keyMod - 1)}, func(k int64) bool { return k == keyMod-1 }},
	{"t_hash", catalog.IndexProbe{Eq: ptr(keyMod)}, func(int64) bool { return false }},
	{"t_ord", catalog.IndexProbe{Lo: ptr(5), Hi: ptr(20), LoInc: true, HiInc: true}, func(k int64) bool { return k >= 5 && k <= 20 }},
	{"t_ord", catalog.IndexProbe{Lo: ptr(5), Hi: ptr(20)}, func(k int64) bool { return k > 5 && k < 20 }},
	{"t_ord", catalog.IndexProbe{Lo: ptr(50), LoInc: true}, func(k int64) bool { return k >= 50 }},
	{"t_ord", catalog.IndexProbe{Hi: ptr(3)}, func(k int64) bool { return k < 3 }},
}

// checkCursors compares every cursor shape at snap against the model: the
// full range, each split [0,k)+[k,n), and every index probe.
func checkCursors(t *testing.T, tbl *Table, snap uint64, splits []int) {
	t.Helper()
	want := model(tbl, snap, anyKey)
	if got := drain(t, tbl, tbl.Cursor(snap, 0, -1)); !slices.Equal(got, want) {
		t.Fatalf("snapshot %d: full cursor rows %v, want %v", snap, got, want)
	}
	for _, k := range splits {
		got := append(drain(t, tbl, tbl.Cursor(snap, 0, k)), drain(t, tbl, tbl.Cursor(snap, k, -1))...)
		if !slices.Equal(got, want) {
			t.Fatalf("snapshot %d: split at %d rows %v, want %v", snap, k, got, want)
		}
	}
	for _, p := range indexProbes {
		c, err := tbl.IndexCursor(p.index, p.probe, snap)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := drain(t, tbl, c), model(tbl, snap, p.keep); !slices.Equal(got, want) {
			t.Fatalf("snapshot %d: %s cursor %+v rows %v, want %v", snap, p.index, p.probe, got, want)
		}
	}
}

// TestCursorMatchesVisibilityModel deletes the rows at every BatchSize
// boundary ±1, a whole stretch, and rows of a later append, one commit at
// a time, then pulls every cursor shape at every intermediate snapshot:
// each must hand out exactly the rows the row-by-row model admits, with
// their physical positions as row ids.
func TestCursorMatchesVisibilityModel(t *testing.T) {
	const bs = types.BatchSize
	n := 5*bs + 10
	s, tbl := cursorTable(t, n)
	del := func(rows ...int) {
		t.Helper()
		tx := s.Begin()
		for _, r := range rows {
			if err := tx.Delete(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	del(0)
	for b := bs; b < n; b += bs {
		del(b - 1)
		del(b)
		del(b + 1)
	}
	var stretch []int // the rest of [3·bs, 4·bs): the stretch is now empty
	for i := 3*bs + 2; i < 4*bs-1; i++ {
		stretch = append(stretch, i)
	}
	del(stretch...)
	appendPositions(t, s, tbl, bs/2+3)
	del(n - 1)
	del(n, n+bs/2+2)
	end := tbl.PhysicalRows()
	splits := []int{0, 1, bs - 1, bs, bs + 1, 3 * bs, 4 * bs, n / 2, n - 1, n, n + 1, end, end + 7}
	for snap := uint64(0); snap <= s.Snapshot(); snap++ {
		checkCursors(t, tbl, snap, splits)
	}
	if _, err := tbl.IndexCursor("t_hash", catalog.IndexProbe{Lo: ptr(1)}, s.Snapshot()); err == nil {
		t.Error("a range cursor over a hash index was accepted")
	}
	if _, err := tbl.IndexCursor("nope", catalog.IndexProbe{Eq: ptr(1)}, s.Snapshot()); err == nil {
		t.Error("a cursor over a missing index was accepted")
	}
}

// TestCursorUnderConcurrentCommits pulls every cursor shape at published
// snapshots while two committers insert and delete: a snapshot's rows are
// fixed once it is published, so each pull must still equal the model.
func TestCursorUnderConcurrentCommits(t *testing.T) {
	s, tbl := cursorTable(t, 2*types.BatchSize)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load() && i < 2000; i++ {
				tx := s.Begin()
				if rng.Intn(2) == 0 {
					b := types.NewBatch(tbl.Schema())
					for range 1 + rng.Intn(40) {
						b.AppendRow([]types.Value{types.NewInt(rng.Int63n(keyMod)), types.NewFloat(rng.Float64())})
					}
					_ = tx.Insert(tbl, b)
				} else {
					_ = tx.Delete(tbl, rng.Intn(tbl.PhysicalRows()))
				}
				if err := tx.Commit(); err != nil && !errors.As(err, new(*ConflictError)) {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		n := tbl.PhysicalRows()
		checkCursors(t, tbl, s.Snapshot(), []int{n / 3, n - 1})
	}
}

// TestStretchSummaryKeptByEveryWriter checks the per-stretch deletion
// summary that lets a cursor round, and NumRows, admit a stretch without a
// per-row test, as each writer leaves it: an image restored in pieces that
// do not fall on stretch edges, with deleted rows at every edge ±1, a
// wholly deleted stretch and a partial tail stretch; then deletes replayed
// through the commit step into stretches the image left clean, and a
// commit's append. At every snapshot each cursor shape — splits off the
// stretch edges among them — and NumRows must agree with the row-by-row
// model.
func TestStretchSummaryKeptByEveryWriter(t *testing.T) {
	const bs = types.BatchSize
	const clock = 40
	n := 6*bs + 123
	s := NewStore()
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []IndexDef{{Name: "t_ord", Table: "t", Column: "id", Kind: OrderedIndex},
		{Name: "t_hash", Table: "t", Column: "id", Kind: HashIndex}} {
		if err := s.CreateIndex(def); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	createdAt, deletedAt := make([]uint64, n), make([]uint64, n)
	deleteAt := func(i int) { deletedAt[i] = createdAt[i] + uint64(rng.Int63n(int64(clock-createdAt[i]+1))) }
	for i := range n {
		createdAt[i] = 1 + uint64(i*30/n)
	}
	for e := 0; e <= n; e += bs {
		for _, i := range []int{e - 1, e, e + 1} {
			if i >= 0 && i < n {
				deleteAt(i)
			}
		}
	}
	for i := 2 * bs; i < 3*bs; i++ { // stretch 2 wholly deleted
		deleteAt(i)
	}
	for i := 6*bs + 50; i < 6*bs+60; i++ { // some of the partial tail
		deleteAt(i)
	}
	for lo := 0; lo < n; lo += 700 {
		hi := min(lo+700, n)
		b := types.NewBatch(tbl.Schema())
		for i := lo; i < hi; i++ {
			b.AppendRow([]types.Value{types.NewInt(int64(i % keyMod)), types.NewFloat(float64(i))})
		}
		if err := tbl.RestoreRows(b, createdAt[lo:hi], deletedAt[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	s.RestoreClock(clock)

	// Replayed deletes land mid-stretch in stretches 0, 3 and 4, which the
	// image left with edge deletions only, and at the tail.
	for ts, rows := range [][]int{{bs / 2}, {3*bs + 7, 4*bs + 500}, {n - 2}} {
		c := &Change{Kind: ChangeCommit, TS: clock + 1 + uint64(ts)}
		for _, r := range rows {
			c.Deletes = append(c.Deletes, CommitDelete{Table: "t", TableID: tbl.ID(), Row: r})
		}
		if applied, err := s.Replay(c, 0); err != nil || !applied {
			t.Fatalf("replay of commit %d: applied %v, err %v", c.TS, applied, err)
		}
	}
	appendPositions(t, s, tbl, bs+5)
	tx := s.Begin()
	if err := tx.Delete(tbl, n+bs); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	end := tbl.PhysicalRows()
	splits := []int{1, bs / 3, bs + 1, 2*bs - 1, 2*bs + 700, 3*bs + 8, n - 1, n + 1, end - 1}
	for snap := uint64(0); snap <= s.Snapshot(); snap++ {
		checkCursors(t, tbl, snap, splits)
		if got, want := tbl.NumRows(snap), len(model(tbl, snap, anyKey)); got != want {
			t.Fatalf("snapshot %d: NumRows %d, want %d", snap, got, want)
		}
	}
}
