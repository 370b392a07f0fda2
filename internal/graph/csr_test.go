package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// oracleBuild is the CSR by definition: the distinct ids sorted ascending
// and numbered in that order, each source's edges in input order.
func oracleBuild(src, dst []int64, weights []float64) *CSR {
	seen := map[int64]bool{}
	var orig []int64
	for _, id := range append(slices.Clone(src), dst...) {
		if !seen[id] {
			seen[id] = true
			orig = append(orig, id)
		}
	}
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	dense := func(id int64) int32 {
		i, _ := slices.BinarySearch(orig, id)
		return int32(i)
	}
	order := make([]int, len(src))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dense(src[order[a]]) < dense(src[order[b]]) })
	g := &CSR{N: len(orig), Offsets: make([]int64, len(orig)+1), Targets: []int32{}, OrigIDs: orig}
	if weights != nil {
		g.Weights = []float64{}
	}
	for _, i := range order {
		g.Offsets[dense(src[i])+1]++
		g.Targets = append(g.Targets, dense(dst[i]))
		if weights != nil {
			g.Weights = append(g.Weights, weights[i])
		}
	}
	for v := range orig {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

// sameCSR compares two CSRs array by array (a nil and an empty array are
// the same) and says where they differ.
func sameCSR(a, b *CSR) error {
	switch {
	case a.N != b.N:
		return fmt.Errorf("N %d vs %d", a.N, b.N)
	case !slices.Equal(a.Offsets, b.Offsets):
		return fmt.Errorf("Offsets %v vs %v", a.Offsets, b.Offsets)
	case !slices.Equal(a.Targets, b.Targets):
		return fmt.Errorf("Targets %v vs %v", a.Targets, b.Targets)
	case (a.Weights == nil) != (b.Weights == nil) || !slices.Equal(a.Weights, b.Weights):
		return fmt.Errorf("Weights %v vs %v", a.Weights, b.Weights)
	case !slices.Equal(a.OrigIDs, b.OrigIDs):
		return fmt.Errorf("OrigIDs %v vs %v", a.OrigIDs, b.OrigIDs)
	}
	return nil
}

// checkBoth builds src/dst through BuildWeighted and through each relabel
// path forced, and holds every result to the oracle. The dense path is
// forced only where its array stays small.
func checkBoth(src, dst []int64, weights []float64) error {
	want := oracleBuild(src, dst, weights)
	got, err := BuildWeighted(src, dst, weights)
	if err != nil {
		return err
	}
	if err := sameCSR(got, want); err != nil {
		return fmt.Errorf("BuildWeighted: %w", err)
	}
	if err := sameCSR(relabelSparse(src, dst).build(weights), want); err != nil {
		return fmt.Errorf("sparse path: %w", err)
	}
	if lo, span := idSpan(src, dst); span < 1<<20 {
		if err := sameCSR(relabelDense(src, dst, lo, span).build(weights), want); err != nil {
			return fmt.Errorf("dense path: %w", err)
		}
	}
	return nil
}

// TestRelabelPathsMatchOracle: over random edge lists — ids around a
// random base, negative ones included, with self-loops, parallel edges and
// target-only vertices as they fall — the direct-address and the map
// relabeling build the oracle's CSR, weighted and not.
func TestRelabelPathsMatchOracle(t *testing.T) {
	f := func(raw []int16, base int64, stride uint8, weighted bool) bool {
		base %= 1 << 40
		step := int64(stride%4) + 1
		n := len(raw) / 2
		src, dst := make([]int64, n), make([]int64, n)
		var weights []float64
		if weighted {
			weights = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			src[i] = base + step*int64(raw[2*i]%64)
			dst[i] = base + step*int64(raw[2*i+1]%64)
			if weighted {
				weights[i] = float64(i) + 0.5
			}
		}
		if err := checkBoth(src, dst, weights); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRelabelCases: the edge cases of the id span, each held to the oracle
// through BuildWeighted and through both relabel paths.
func TestRelabelCases(t *testing.T) {
	lots := func(n int, id func(i int) int64) (src, dst []int64) {
		for i := 0; i < n; i++ {
			src, dst = append(src, id(i)), append(dst, id((i*7+3)%n))
		}
		return src, dst
	}
	bigSrc, bigDst := lots(5000, func(i int) int64 { return int64(i) * 2 })
	rng := rand.New(rand.NewSource(4))
	randSrc, randDst := make([]int64, 20_000), make([]int64, 20_000)
	for i := range randSrc {
		randSrc[i], randDst[i] = rng.Int63n(3000)-1500, rng.Int63n(3000)-1500
	}
	cases := []struct {
		name      string
		src, dst  []int64
		wantDense bool
	}{
		{"empty", nil, nil, true},
		{"negative ids", []int64{-5, -1, 3, -5}, []int64{-1, 3, -5, -1000}, true},
		{"min and max int64", []int64{math.MinInt64, math.MaxInt64, 0}, []int64{math.MaxInt64, math.MinInt64, math.MinInt64}, false},
		{"max int64 alone", []int64{math.MaxInt64}, []int64{math.MaxInt64 - 1}, true},
		{"min int64 alone", []int64{math.MinInt64}, []int64{math.MinInt64 + 8191}, true},
		{"span at the floor", []int64{100, 100 + denseFloor - 1}, []int64{100 + denseFloor - 1, 100}, true},
		{"span past the floor", []int64{100, 100 + denseFloor}, []int64{100 + denseFloor, 100}, false},
		{"span at twice the edges", append([]int64{0}, bigSrc...), append([]int64{2*5001 - 1}, bigDst...), true},
		{"span past twice the edges", append([]int64{0}, bigSrc...), append([]int64{2 * 5001}, bigDst...), false},
		{"self-loops and parallel edges", []int64{7, 7, 7, 9, 9}, []int64{7, 9, 9, 9, 7}, true},
		{"target-only vertices", []int64{1, 1}, []int64{50, 2}, true},
		{"20k random edges over 3k ids", randSrc, randDst, true},
	}
	for _, tc := range cases {
		_, span := idSpan(tc.src, tc.dst)
		if got := dense(span, len(tc.src)); got != tc.wantDense {
			t.Errorf("%s: relabeled densely = %v, want %v", tc.name, got, tc.wantDense)
		}
		weights := make([]float64, len(tc.src))
		for i := range weights {
			weights[i] = float64(i)
		}
		for _, w := range [][]float64{nil, weights} {
			if err := checkBoth(tc.src, tc.dst, w); err != nil {
				t.Errorf("%s (weighted %v): %v", tc.name, w != nil, err)
			}
		}
	}
}

func TestBuildSimple(t *testing.T) {
	// 1→3, 2→3, 3→1 with sparse original ids.
	g, err := Build([]int64{10, 20, 30}, []int64{30, 30, 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Dense ids assigned in sorted original order: 10→0, 20→1, 30→2.
	if g.OrigIDs[0] != 10 || g.OrigIDs[1] != 20 || g.OrigIDs[2] != 30 {
		t.Fatalf("orig ids = %v", g.OrigIDs)
	}
	if g.OutDegree(0) != 1 || g.OutDegree(1) != 1 || g.OutDegree(2) != 1 {
		t.Errorf("out degrees = %d %d %d", g.OutDegree(0), g.OutDegree(1), g.OutDegree(2))
	}
	if n := g.Neighbors(0); len(n) != 1 || n[0] != 2 {
		t.Errorf("neighbors(0) = %v", n)
	}
	if n := g.Neighbors(2); len(n) != 1 || n[0] != 0 {
		t.Errorf("neighbors(2) = %v", n)
	}
}

func TestBuildIncludesTargetOnlyVertices(t *testing.T) {
	g, err := Build([]int64{1}, []int64{99})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 {
		t.Fatalf("N = %d, want 2", g.N)
	}
	if g.OutDegree(1) != 0 {
		t.Errorf("sink should have out-degree 0")
	}
}

func TestBuildLengthMismatch(t *testing.T) {
	if _, err := Build([]int64{1, 2}, []int64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestBuildEmpty(t *testing.T) {
	g, err := Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph: N=%d edges=%d", g.N, g.NumEdges())
	}
}

func TestBuildParallelEdgesAndSelfLoops(t *testing.T) {
	g, err := Build([]int64{1, 1, 2}, []int64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Errorf("parallel edges must be kept: %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 {
		t.Errorf("out degree with parallel edge = %d", g.OutDegree(0))
	}
	if g.OutDegree(1) != 1 { // self loop 2→2
		t.Errorf("self loop out degree = %d", g.OutDegree(1))
	}
}

func TestTransposeReversesEdges(t *testing.T) {
	g, err := Build([]int64{0, 0, 1}, []int64{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	if tr.N != g.N || tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose size mismatch")
	}
	// In-degree of 2 in g is out-degree of 2 in transpose.
	if tr.OutDegree(2) != 2 {
		t.Errorf("transpose out-degree(2) = %d, want 2", tr.OutDegree(2))
	}
	if tr.OutDegree(0) != 0 {
		t.Errorf("transpose out-degree(0) = %d, want 0", tr.OutDegree(0))
	}
}

func TestTransposeInvolution(t *testing.T) {
	// Property: transposing twice restores edge multiset per vertex.
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var src, dst []int64
		for i := 0; i+1 < len(raw); i += 2 {
			src = append(src, int64(raw[i]%16))
			dst = append(dst, int64(raw[i+1]%16))
		}
		g, err := Build(src, dst)
		if err != nil {
			return false
		}
		back := g.Transpose().Transpose()
		if back.N != g.N || back.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < g.N; v++ {
			a, b := g.Neighbors(v), back.Neighbors(v)
			if len(a) != len(b) {
				return false
			}
			counts := map[int32]int{}
			for _, x := range a {
				counts[x]++
			}
			for _, x := range b {
				counts[x]--
			}
			for _, c := range counts {
				if c != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetsAreMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		var src, dst []int64
		for i := 0; i+1 < len(raw); i += 2 {
			src = append(src, int64(raw[i]))
			dst = append(dst, int64(raw[i+1]))
		}
		g, err := Build(src, dst)
		if err != nil {
			return false
		}
		for i := 0; i < g.N; i++ {
			if g.Offsets[i] > g.Offsets[i+1] {
				return false
			}
		}
		return g.Offsets[g.N] == int64(len(g.Targets))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
