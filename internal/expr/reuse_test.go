package expr

import (
	"math/rand"
	"testing"

	"lambdadb/internal/types"
)

// TestReusedBuffersMatchFreshResults evaluates expressions whose inner
// nodes write into reused buffers over a run of batches of changing length
// and NULL pattern — each compiled once, as an operator compiles them — and
// holds every result to a fresh compilation's first call. It also holds a
// root result, which is fresh, to what it was after the next batch ran
// through its inner nodes: a fresh column never shares their storage, its
// NULL bitmap included. With CompileLent the root reuses a buffer too.
func TestReusedBuffersMatchFreshResults(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := func(i int) Expr { return &ColRef{Name: "f", Index: i, Typ: types.Float64} }
	k := func(i int) Expr { return &ColRef{Name: "k", Index: 2 + i, Typ: types.Int64} }
	fc := func(x float64) Expr { return &Const{Val: types.NewFloat(x)} }
	bin := func(op Op, l, r Expr, t types.Type) Expr { return &BinOp{Op: op, L: l, R: r, Typ: t} }
	sq := func(e Expr) Expr { return bin(OpPow, e, fc(2), types.Float64) }
	exprs := []Expr{
		bin(OpAdd, sq(bin(OpSub, f(0), f(1), types.Float64)), sq(bin(OpSub, f(1), fc(0.5), types.Float64)), types.Float64),
		&Cast{To: types.Int64, E: &FuncCall{Name: "floor", Typ: types.Float64, Args: []Expr{bin(OpMul, f(0), fc(100), types.Float64)}}},
		bin(OpOr, &UnOp{Op: OpNot, E: bin(OpLt, f(0), f(1), types.Bool), Typ: types.Bool},
			bin(OpAnd, bin(OpGe, k(0), &Const{Val: types.NewInt(3)}, types.Bool), &IsNull{E: f(1)}, types.Bool), types.Bool),
		bin(OpAdd, &Cast{To: types.Float64, E: bin(OpMod, k(0), &Const{Val: types.NewInt(7)}, types.Int64)},
			&FuncCall{Name: "coalesce", Typ: types.Float64, Args: []Expr{f(1), fc(-1)}}, types.Float64),
		bin(OpMul, &FuncCall{Name: "abs", Typ: types.Int64, Args: []Expr{bin(OpSub, k(0), k(1), types.Int64)}},
			&UnOp{Op: OpNeg, E: k(1), Typ: types.Int64}, types.Int64),
		bin(OpAdd, f(0), &Const{Val: types.NewNull(types.Float64)}, types.Float64),
		&FuncCall{Name: "sqrt", Typ: types.Float64, Args: []Expr{bin(OpMul, f(0), f(1), types.Float64)}},
	}
	batch := func(n int) *types.Batch {
		b := &types.Batch{}
		for c := range 4 {
			col := &types.Column{T: types.Float64}
			if c >= 2 {
				col.T = types.Int64
			}
			if rng.Intn(2) == 0 {
				col.Nulls = make([]bool, n)
			}
			for i := range n {
				if col.T == types.Int64 {
					col.Ints = append(col.Ints, rng.Int63n(200)-100)
				} else {
					col.Floats = append(col.Floats, rng.NormFloat64())
				}
				if col.Nulls != nil {
					col.Nulls[i] = rng.Intn(4) == 0
				}
			}
			b.Cols = append(b.Cols, col)
		}
		return b
	}
	for _, e := range exprs {
		for _, lent := range []bool{false, true} {
			var s types.Scratch
			compile := CompileScratch
			if lent {
				compile = CompileLent
			}
			ev, err := compile(e, &s)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			var prev *types.Column
			var prevWant []types.Value
			for _, n := range []int{700, 1024, 3, 0, 1024, 511} {
				b := batch(n)
				fresh, err := Compile(e)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ev(b)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				if got.Len() != n || want.Len() != n {
					t.Fatalf("%s: %d rows, fresh %d, want %d", e, got.Len(), want.Len(), n)
				}
				for i := range n {
					if g, w := got.Value(i), want.Value(i); !sameValue(g, w) {
						t.Fatalf("%s (lent %v), %d rows, row %d: got %v, fresh %v", e, lent, n, i, g, w)
					}
				}
				if !lent && prev != nil {
					for i, w := range prevWant {
						if g := prev.Value(i); !sameValue(g, w) {
							t.Fatalf("%s: the previous fresh result changed at row %d: %v, was %v", e, i, g, w)
						}
					}
				}
				prev, prevWant = got, nil
				for i := range n {
					prevWant = append(prevWant, got.Value(i))
				}
			}
		}
	}
}
