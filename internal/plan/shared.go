package plan

import (
	"slices"

	"lambdadb/internal/types"
)

// Shared marks a subplan referenced from several places (a non-recursive
// CTE). The executor materializes it once per execution epoch and serves
// every reference from the cache, instead of re-evaluating the subtree at
// each reference site.
//
// Invariant marks subplans that read no working table of an enclosing loop:
// those are constant for the whole query — including across ITERATE /
// recursive-CTE iterations — and are cached once (loop-invariant hoisting).
// Subplans that do read one are cached only within one iteration epoch.
type Shared struct {
	Child Node
	// Invariant reports !ReadsWorkingTable(Child).
	Invariant bool
}

func (s *Shared) Schema() types.Schema { return s.Child.Schema() }
func (s *Shared) Quals() []string      { return s.Child.Quals() }
func (s *Shared) Card() float64        { return s.Child.Card() }
func (s *Shared) Children() []Node     { return []Node{s.Child} }
func (s *Shared) Explain() string {
	if s.Invariant {
		return "Shared (invariant)"
	}
	return "Shared"
}

// ReadsWorkingTable reports whether the subtree reads a working table bound
// outside it, and so changes from one round of the enclosing loop to the
// next. A loop wholly inside the subtree — an ITERATE or recursive CTE
// reading its own working table — does not count: its result is as constant
// as its inputs.
func ReadsWorkingTable(n Node) bool { return readsUnbound(n, nil) }

func readsUnbound(n Node, bound []string) bool {
	switch n := n.(type) {
	case *WorkingScan:
		return !slices.Contains(bound, n.Name)
	case *Iterate:
		inner := append(slices.Clip(bound), "iterate")
		return readsUnbound(n.Init, bound) || readsUnbound(n.Step, inner) || readsUnbound(n.Stop, inner)
	case *RecursiveCTE:
		return readsUnbound(n.Init, bound) || readsUnbound(n.Rec, append(slices.Clip(bound), n.Name))
	}
	for _, c := range n.Children() {
		if readsUnbound(c, bound) {
			return true
		}
	}
	return false
}
