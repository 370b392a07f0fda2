package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// stallingWriter runs stall before its first write reaches the buffer.
type stallingWriter struct {
	bytes.Buffer
	once  sync.Once
	stall func()
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	w.once.Do(w.stall)
	return w.Buffer.Write(p)
}

// visibleAt returns the physical row id and value of every row of tbl
// visible at snap, in physical order.
func visibleAt(tbl *storage.Table, snap uint64) (ids []int, xs []int64) {
	c := tbl.Cursor(snap, 0, -1)
	for b, rowIDs := c.Next(); b != nil; b, rowIDs = c.Next() {
		ids = append(ids, rowIDs...)
		xs = append(xs, b.Cols[0].Ints...)
	}
	return ids, xs
}

// TestPhysicalImageUnderConcurrentCommits writes a physical image at a
// fixed clock while two committers keep inserting and deleting; the image
// writer stalls mid-table until ten more commits have landed. The loaded
// image must equal the live store as of that clock: at every snapshot up
// to it, the same rows at the same physical positions.
func TestPhysicalImageUnderConcurrentCommits(t *testing.T) {
	s := storage.NewStore()
	tbl, err := s.CreateTable("t", types.Schema{{Name: "x", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(rng *rand.Rand) error {
		tx := s.Begin()
		if n := tbl.PhysicalRows(); n > 0 && rng.Intn(3) == 0 {
			_ = tx.Delete(tbl, rng.Intn(n))
		} else {
			b := types.NewBatch(tbl.Schema())
			for range 1 + rng.Intn(2*types.BatchSize) {
				b.AppendRow([]types.Value{types.NewInt(rng.Int63())})
			}
			_ = tx.Insert(tbl, b)
		}
		if err := tx.Commit(); err != nil && !errors.As(err, new(*storage.ConflictError)) {
			return err
		}
		return nil
	}
	seed := rand.New(rand.NewSource(0))
	for range 20 {
		if err := commit(seed); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for !stop.Load() {
				if err := commit(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	clock := s.Snapshot()
	w := &stallingWriter{stall: func() {
		for s.Snapshot() < clock+10 {
			runtime.Gosched()
		}
	}}
	err = SavePhysical(s, w, clock)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Load(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Snapshot(); got != clock {
		t.Fatalf("restored clock %d, want %d", got, clock)
	}
	tbl2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for snap := uint64(0); snap <= clock; snap++ {
		ids, xs := visibleAt(tbl, snap)
		ids2, xs2 := visibleAt(tbl2, snap)
		if !slices.Equal(ids, ids2) || !slices.Equal(xs, xs2) {
			t.Fatalf("snapshot %d: the image holds %d rows, the store %d", snap, len(ids2), len(ids))
		}
	}
}
