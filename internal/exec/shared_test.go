package exec

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// countingNode wraps a Values plan and counts executions through a
// side-channel on the plan (executions happen in valuesOp.Open; we count
// via a custom Relation-free node by instrumenting with a Filter whose
// predicate is pure — instead, simply count through a custom plan node).
type countingNode struct {
	inner *plan.Values
	runs  *atomic.Int64
}

func (c *countingNode) Schema() types.Schema { return c.inner.Schema() }
func (c *countingNode) Quals() []string      { return c.inner.Quals() }
func (c *countingNode) Card() float64        { return c.inner.Card() }
func (c *countingNode) Children() []plan.Node {
	return []plan.Node{c.inner}
}
func (c *countingNode) Explain() string { return "Counting" }

// countingOp executes the inner values and bumps the counter on Open.
type countingOp struct {
	node  *countingNode
	inner Operator
}

func (c *countingOp) Schema() types.Schema { return c.node.Schema() }
func (c *countingOp) Open(ctx *Context) error {
	c.node.runs.Add(1)
	var err error
	c.inner, err = Build(c.node.inner)
	if err != nil {
		return err
	}
	return c.inner.Open(ctx)
}
func (c *countingOp) Next() (*types.Batch, error) { return c.inner.Next() }
func (c *countingOp) Close() error                { return c.inner.Close() }

func init() {
	// Register the counting node with the builder through buildHook.
	buildHook = func(p plan.Node) (Operator, bool) {
		if n, ok := p.(*countingNode); ok {
			return &countingOp{node: n}, true
		}
		return nil, false
	}
}

func oneRowValues() *plan.Values {
	return &plan.Values{
		Sch:  types.Schema{{Name: "x", Type: types.Int64}},
		Rows: [][]types.Value{{types.NewInt(1)}},
	}
}

func TestSharedInvariantComputedOnce(t *testing.T) {
	var runs atomic.Int64
	counted := &countingNode{inner: oneRowValues(), runs: &runs}
	shared := &plan.Shared{Child: counted, Invariant: true}
	// Two references unioned together.
	u := &plan.Union{L: shared, R: shared, All: true}
	ctx := NewContext()
	m, err := Run(u, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 2 {
		t.Fatalf("rows = %d", m.NumRows)
	}
	if runs.Load() != 1 {
		t.Errorf("shared subplan ran %d times, want 1", runs.Load())
	}
}

func TestSharedEpochScopedRecomputes(t *testing.T) {
	var runs atomic.Int64
	counted := &countingNode{inner: oneRowValues(), runs: &runs}
	shared := &plan.Shared{Child: counted, Invariant: false}
	ctx := NewContext()
	round := ctx.round("iterate", nil)
	if _, err := Run(shared, round); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(shared, round); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("same round should cache: runs = %d", runs.Load())
	}
	round.endRound()
	if _, err := Run(shared, ctx.round("iterate", nil)); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Errorf("new round should recompute: runs = %d", runs.Load())
	}
}

// TestRoundContextCarriesTheStatement: a round's context is the statement's
// in everything but its bindings and epoch. round names the fields it
// copies, so a field added to Context must be added there or here.
func TestRoundContextCarriesTheStatement(t *testing.T) {
	ctx := NewContext()
	ctx.Workers = 3
	ctx.OnIndexProbe = func(int64) {}
	ctx.AttachContext(context.Background())
	ctx.SetMemoryLimit(1 << 20)
	ctx.EnableStats()
	outer := &Materialized{}
	ctx.Bindings["outer"] = outer
	working := &Materialized{}
	inner := ctx.round("r", working).round("r2", working)
	own := map[string]bool{"Bindings": true, "epoch": true, "stmt": true, "shared": true}
	a, b := reflect.ValueOf(ctx).Elem(), reflect.ValueOf(inner).Elem()
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		if own[name] {
			continue
		}
		if f := a.Field(i); f.IsZero() {
			t.Errorf("Context.%s is not set by this test", name)
		} else if f.Kind() == reflect.Func {
			if b.Field(i).IsNil() {
				t.Errorf("round drops Context.%s", name)
			}
		} else if !f.Equal(b.Field(i)) {
			t.Errorf("round does not carry Context.%s", name)
		}
	}
	if inner.stmt != ctx || inner.cache() != &ctx.shared || inner.epoch != 2 {
		t.Errorf("a nested round uses cache %p (statement's %p) at epoch %d, want 2", inner.cache(), &ctx.shared, inner.epoch)
	}
	if inner.Bindings["outer"] != outer || inner.Bindings["r2"] != working || len(ctx.Bindings) != 1 {
		t.Errorf("bindings: round %v, statement %v", inner.Bindings, ctx.Bindings)
	}
}

func TestSharedNestedNoDeadlock(t *testing.T) {
	// A shared subplan whose child references another shared subplan; the
	// original implementation held the cache lock during compute and
	// deadlocked here.
	inner := &plan.Shared{Child: oneRowValues(), Invariant: true}
	outer := &plan.Shared{Child: &plan.Union{L: inner, R: inner, All: true}, Invariant: true}
	done := make(chan error, 1)
	go func() {
		_, err := Run(outer, NewContext())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested shared subplans deadlocked")
	}
}
