package expr

import (
	"math"
	"testing"
	"testing/quick"

	"lambdadb/internal/types"
)

func xySchema() types.Schema {
	return types.Schema{{Name: "x", Type: types.Float64}, {Name: "y", Type: types.Float64}}
}

func pf(param, field string) Expr {
	return &ColRef{Table: param, Name: field, Index: -1}
}

// evalLambda binds l, one schema per parameter, compiles its body with
// Compile and evaluates it over b, whose columns are the parameters' fields
// in order.
func evalLambda(t *testing.T, l *Lambda, b *types.Batch, schemas ...types.Schema) *types.Column {
	t.Helper()
	bound, err := BindLambda(l, schemas)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Compile(bound.Body)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ev(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scalarLambda is l bound to schemas as a function of one row per
// parameter, evaluated as a one-row batch.
func scalarLambda(t *testing.T, l *Lambda, schemas ...types.Schema) func(rows ...[]float64) float64 {
	return func(rows ...[]float64) float64 {
		b := &types.Batch{}
		for _, row := range rows {
			for _, v := range row {
				b.Cols = append(b.Cols, &types.Column{T: types.Float64, Floats: []float64{v}})
			}
		}
		return evalLambda(t, l, b, schemas...).Floats[0]
	}
}

// euclidLambda builds λ(a, b) (a.x-b.x)^2 + (a.y-b.y)^2 — the paper's
// Listing 3.
func euclidLambda() *Lambda {
	sq := func(p Expr) Expr {
		return &BinOp{Op: OpPow, L: p, R: &Const{Val: types.NewInt(2)}}
	}
	body := &BinOp{Op: OpAdd,
		L: sq(&BinOp{Op: OpSub, L: pf("a", "x"), R: pf("b", "x")}),
		R: sq(&BinOp{Op: OpSub, L: pf("a", "y"), R: pf("b", "y")}),
	}
	return &Lambda{Params: []string{"a", "b"}, Body: body}
}

// defaultDistance is the reference for the paper's default k-Means
// variation point: squared Euclidean distance over d dimensions.
func defaultDistance(d int) func(a, b []float64) float64 {
	return func(a, b []float64) float64 {
		var s float64
		for i := 0; i < d; i++ {
			diff := a[i] - b[i]
			s += diff * diff
		}
		return s
	}
}

// manhattanDistance is the reference L1 metric (k-Medians variant).
func manhattanDistance(d int) func(a, b []float64) float64 {
	return func(a, b []float64) float64 {
		var s float64
		for i := 0; i < d; i++ {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
}

func TestBindAndCompileEuclidean(t *testing.T) {
	fn := scalarLambda(t, euclidLambda(), xySchema(), xySchema())
	got := fn([]float64{0, 0}, []float64{3, 4})
	if got != 25 {
		t.Errorf("distance = %v, want 25", got)
	}
}

func TestLambdaMatchesDefaultDistance(t *testing.T) {
	fn := scalarLambda(t, euclidLambda(), xySchema(), xySchema())
	def := defaultDistance(2)
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) ||
			math.IsInf(ax, 0) || math.IsInf(ay, 0) || math.IsInf(bx, 0) || math.IsInf(by, 0) {
			return true
		}
		a, b := []float64{ax, ay}, []float64{bx, by}
		x, y := fn(a, b), def(a, b)
		if x == y {
			return true
		}
		// allow tiny fp discrepancy from different association
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanLambda(t *testing.T) {
	// λ(a, b) abs(a.x-b.x) + abs(a.y-b.y): the k-Medians variation point.
	absDiff := func(f string) Expr {
		return &FuncCall{Name: "abs",
			Args: []Expr{&BinOp{Op: OpSub, L: pf("a", f), R: pf("b", f)}}}
	}
	l := &Lambda{Params: []string{"a", "b"},
		Body: &BinOp{Op: OpAdd, L: absDiff("x"), R: absDiff("y")}}
	fn := scalarLambda(t, l, xySchema(), xySchema())
	got := fn([]float64{0, 0}, []float64{3, -4})
	if got != 7 {
		t.Errorf("L1 distance = %v, want 7", got)
	}
	ref := manhattanDistance(2)([]float64{0, 0}, []float64{3, -4})
	if got != ref {
		t.Errorf("lambda %v != builtin %v", got, ref)
	}
}

func TestLambdaWithCase(t *testing.T) {
	// λ(a, b) CASE WHEN a.x > b.x THEN a.x - b.x ELSE b.x - a.x END
	l := &Lambda{Params: []string{"a", "b"}, Body: &Case{
		Whens: []When{{
			Cond: &BinOp{Op: OpGt, L: pf("a", "x"), R: pf("b", "x")},
			Then: &BinOp{Op: OpSub, L: pf("a", "x"), R: pf("b", "x")},
		}},
		Else: &BinOp{Op: OpSub, L: pf("b", "x"), R: pf("a", "x")},
	}}
	fn := scalarLambda(t, l, xySchema(), xySchema())
	if got := fn([]float64{5, 0}, []float64{2, 0}); got != 3 {
		t.Errorf("case lambda = %v, want 3", got)
	}
	if got := fn([]float64{2, 0}, []float64{5, 0}); got != 3 {
		t.Errorf("case lambda = %v, want 3", got)
	}
}

func TestBindLambdaErrors(t *testing.T) {
	// Unknown parameter.
	l := &Lambda{Params: []string{"a"}, Body: pf("z", "x")}
	if _, err := BindLambda(l, []types.Schema{xySchema()}); err == nil {
		t.Error("unknown parameter should fail")
	}
	// Unknown field.
	l = &Lambda{Params: []string{"a"}, Body: pf("a", "nope")}
	if _, err := BindLambda(l, []types.Schema{xySchema()}); err == nil {
		t.Error("unknown field should fail")
	}
	// Non-numeric field.
	l = &Lambda{Params: []string{"a"}, Body: pf("a", "s")}
	strSchema := types.Schema{{Name: "s", Type: types.String}}
	if _, err := BindLambda(l, []types.Schema{strSchema}); err == nil {
		t.Error("non-numeric field should fail")
	}
	// Too few bound schemas.
	l = &Lambda{Params: []string{"a", "b"}, Body: pf("a", "x")}
	if _, err := BindLambda(l, []types.Schema{xySchema()}); err == nil {
		t.Error("missing schema binding should fail")
	}
}

func TestPowSpecializations(t *testing.T) {
	for _, tc := range []struct {
		exp  float64
		base float64
		want float64
	}{
		{2, 3, 9}, {3, 2, 8}, {1, 5, 5}, {0.5, 16, 4}, {4, 2, 16},
	} {
		l := &Lambda{Params: []string{"a"}, Body: &BinOp{Op: OpPow,
			L: pf("a", "x"), R: &Const{Val: types.NewFloat(tc.exp)}}}
		fn := scalarLambda(t, l, types.Schema{{Name: "x", Type: types.Float64}})
		if got := fn([]float64{tc.base}); got != tc.want {
			t.Errorf("%v^%v = %v, want %v", tc.base, tc.exp, got, tc.want)
		}
	}
}

func TestLambdaString(t *testing.T) {
	l := euclidLambda()
	s := l.String()
	if s == "" || s[0:2] != "λ" {
		t.Errorf("lambda String = %q", s)
	}
}

func TestDefaultDistanceProperties(t *testing.T) {
	d := defaultDistance(3)
	// Non-negativity and identity.
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		p := []float64{x, y, z}
		return d(p, p) == 0 && d(p, []float64{0, 0, 0}) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Symmetry.
	g := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := []float64{ax, ay, az}, []float64{bx, by, bz}
		return d(a, b) == d(b, a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
