package types

import (
	"math"
	"testing"
)

// TestRetainCopiesOnlyReusedStorage: Retain keeps a batch with nothing
// reused as it is; of one with a reused header or column it makes a new
// header, copies exactly the Reused columns — which then survive the
// buffer's next result and its poisoning — and keeps the rest, views of
// slices included, as they are.
func TestRetainCopiesOnlyReusedStorage(t *testing.T) {
	view := (&Column{T: Int64, Ints: []int64{1, 2, 3, 4}}).Slice(1, 4)
	fresh := &Batch{Cols: []*Column{view}}
	if Retain(fresh) != fresh {
		t.Fatal("a batch with nothing reused was copied")
	}
	var s Scratch
	buf := s.Buffer()
	src := &Column{T: Float64, Floats: []float64{10, 20, 30}, Nulls: []bool{false, true, false}}
	lent := &Batch{Cols: []*Column{view, buf.Gather(src, []int{2, 1, 0})}, Reused: true}
	kept := Retain(lent)
	if kept == lent || &kept.Cols[0] == &lent.Cols[0] || kept.Cols[0] != view {
		t.Fatal("Retain must make a new header and keep the view")
	}
	if kept.Cols[1] == lent.Cols[1] || kept.Cols[1].Reused {
		t.Fatal("Retain must copy the reused column into a fresh one")
	}
	buf.Gather(src, []int{0, 0, 0})
	buf.Poison()
	got := kept.Cols[1]
	if got.Floats[0] != 30 || !got.IsNull(1) || got.Floats[2] != 10 || got.IsNull(0) {
		t.Errorf("retained column = %v %v, want [30 NULL 10]", got.Floats, got.Nulls)
	}
	if poisoning && !math.IsNaN(lent.Cols[1].Floats[0]) {
		t.Errorf("the lent column was not poisoned: %v", lent.Cols[1].Floats)
	}
	if s.Bytes() == 0 {
		t.Error("the scratch counted no bytes for its buffer")
	}
}
