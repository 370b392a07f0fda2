package expr

import (
	"testing"
	"testing/quick"

	"lambdadb/internal/types"
)

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "_____", true},
		{"hello", "____", false},
		{"hello", "H%", false}, // case sensitive
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"mississippi", "m%iss%ppi", true},
		{"mississippi", "m%iss%ippi%", true},
		{"ab", "a%b%c", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.pattern); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}

func TestMatchLikeProperties(t *testing.T) {
	// Any string matches itself and "%".
	f := func(s string) bool {
		return MatchLike(s, s) && MatchLike(s, "%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Prefix% matches.
	g := func(a, b string) bool {
		return MatchLike(a+b, a+"%")
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeInQuery(t *testing.T) {
	e, err := Resolve(&Like{E: col("s"), Pattern: "%b%"}, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Compile(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ev(testBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Test batch strings: "a", "b", "C".
	if c.Bools[0] || !c.Bools[1] || c.Bools[2] {
		t.Errorf("LIKE = %v", c.Bools)
	}
	// NOT LIKE.
	ne, _ := Resolve(&Like{E: col("s"), Pattern: "%b%", Negate: true}, testCtx())
	nev, _ := Compile(ne, nil, nil)
	nc, _ := nev(testBatch())
	if !nc.Bools[0] || nc.Bools[1] {
		t.Errorf("NOT LIKE = %v", nc.Bools)
	}
}

func TestLikeRequiresString(t *testing.T) {
	if _, err := Resolve(&Like{E: col("x"), Pattern: "%"}, testCtx()); err == nil {
		t.Error("LIKE on an integer column should fail to resolve")
	}
}

func TestLikeNullPropagates(t *testing.T) {
	schema := types.Schema{{Name: "v", Type: types.String}}
	b := types.NewBatch(schema)
	b.AppendRow([]types.Value{types.NewNull(types.String)})
	b.AppendRow([]types.Value{types.NewString("x")})
	e, err := Resolve(&Like{E: col("v"), Pattern: "x"}, NewResolveCtx(schema, ""))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := Compile(e, nil, nil)
	c, _ := ev(b)
	if !c.IsNull(0) {
		t.Error("NULL LIKE pattern should be NULL")
	}
	if c.IsNull(1) || !c.Bools[1] {
		t.Errorf("row 1 = %v", c.Bools)
	}
}
