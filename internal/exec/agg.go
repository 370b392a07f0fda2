package exec

import (
	"math"
	"unsafe"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// aggState accumulates one aggregate for one group. Numeric sums are kept
// in both integer and float domains depending on the argument type.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	sumSq float64 // for stddev/variance
	min   types.Value
	max   types.Value
	seen  bool
}

// group holds a group's key values and aggregate states.
type group struct {
	keys   []types.Value
	states []aggState
}

// aggHash is a chained hash table over groups.
type aggHash struct {
	buckets map[uint64][]*group
	groups  []*group // insertion order
	nAggs   int
}

func newAggHash(nAggs int) *aggHash {
	return &aggHash{buckets: map[uint64][]*group{}, nAggs: nAggs}
}

// lookup returns the group for the given key row, creating it on demand.
func (h *aggHash) lookup(keys []types.Value) *group {
	var hv uint64
	for _, k := range keys {
		if k.Null {
			// GROUP BY treats NULLs as one group; give them a fixed hash.
			hv = types.HashCombine(hv, 0x9e3779b97f4a7c15)
		} else {
			hv = types.HashCombine(hv, k.Hash())
		}
	}
	for _, g := range h.buckets[hv] {
		if groupKeysEqual(g.keys, keys) {
			return g
		}
	}
	g := &group{keys: append([]types.Value{}, keys...), states: make([]aggState, h.nAggs)}
	h.buckets[hv] = append(h.buckets[hv], g)
	h.groups = append(h.groups, g)
	return g
}

// groupKeysEqual compares group keys with NULL = NULL (SQL GROUP BY
// semantics, unlike ordinary equality).
func groupKeysEqual(a, b []types.Value) bool {
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// update folds one input value into an aggregate state.
func (s *aggState) update(f plan.AggFunc, v types.Value) {
	if f == plan.AggCountStar {
		s.count++
		return
	}
	if v.Null {
		return
	}
	switch f {
	case plan.AggCount:
		s.count++
	case plan.AggSum, plan.AggAvg:
		s.count++
		if v.T == types.Int64 {
			s.sumI += v.I
		} else {
			s.sumF += v.F
		}
	case plan.AggStddev, plan.AggVariance:
		s.count++
		f := v.AsFloat()
		s.sumF += f
		s.sumSq += f * f
	case plan.AggMin:
		if !s.seen || v.Compare(s.min) < 0 {
			s.min = v
		}
		s.seen = true
	case plan.AggMax:
		if !s.seen || v.Compare(s.max) > 0 {
			s.max = v
		}
		s.seen = true
	}
}

// merge folds another partial state into s (parallel aggregation).
func (s *aggState) merge(f plan.AggFunc, o aggState) {
	switch f {
	case plan.AggCountStar, plan.AggCount:
		s.count += o.count
	case plan.AggSum, plan.AggAvg, plan.AggStddev, plan.AggVariance:
		s.count += o.count
		s.sumI += o.sumI
		s.sumF += o.sumF
		s.sumSq += o.sumSq
	case plan.AggMin:
		if o.seen && (!s.seen || o.min.Compare(s.min) < 0) {
			s.min = o.min
		}
		s.seen = s.seen || o.seen
	case plan.AggMax:
		if o.seen && (!s.seen || o.max.Compare(s.max) > 0) {
			s.max = o.max
		}
		s.seen = s.seen || o.seen
	}
}

// result produces the final value of an aggregate state.
func (s *aggState) result(spec plan.AggSpec) types.Value {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return types.NewInt(s.count)
	case plan.AggSum:
		if s.count == 0 {
			return types.NewNull(spec.Type)
		}
		if spec.Type == types.Int64 {
			return types.NewInt(s.sumI)
		}
		return types.NewFloat(s.sumF + float64(s.sumI))
	case plan.AggAvg:
		if s.count == 0 {
			return types.NewNull(types.Float64)
		}
		return types.NewFloat((s.sumF + float64(s.sumI)) / float64(s.count))
	case plan.AggStddev, plan.AggVariance:
		// Population variance: E[x²] − E[x]², floored at zero against
		// floating-point cancellation.
		if s.count == 0 {
			return types.NewNull(types.Float64)
		}
		n := float64(s.count)
		mean := s.sumF / n
		variance := s.sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		if spec.Func == plan.AggVariance {
			return types.NewFloat(variance)
		}
		return types.NewFloat(math.Sqrt(variance))
	case plan.AggMin:
		if !s.seen {
			return types.NewNull(spec.Type)
		}
		return s.min
	case plan.AggMax:
		if !s.seen {
			return types.NewNull(spec.Type)
		}
		return s.max
	}
	return types.NewNull(spec.Type)
}

// newAggOp is the hash-aggregation operator. Each part of its input (one
// morsel of a splittable pipeline, or the whole input) aggregates into a
// private hash table, and the tables are merged at the end — the
// thread-local pattern the paper describes for its analytical operators
// (Section 6.1). The tables are charged to the query budget while they live
// and released once the output relation is built.
func newAggOp(n *plan.Aggregate) *blockingOp {
	schema := n.Schema()
	return &blockingOp{label: "aggregate", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		sinks, err := drive(ctx, partsOf(n.Child, ctx), "", func(Operator) (*aggSink, error) {
			return newAggSink(n, ctx)
		})
		if err != nil {
			return nil, err
		}
		var held int64
		for _, s := range sinks {
			held += s.charged
		}
		defer ctx.release(held)
		// Merge worker tables into the first.
		total := sinks[0].table
		for _, part := range sinks[1:] {
			for _, g := range part.table.groups {
				dst := total.lookup(g.keys)
				for ai := range dst.states {
					dst.states[ai].merge(n.Aggs[ai].Func, g.states[ai])
				}
			}
		}
		// Global aggregation (no keys) over empty input still yields one row.
		out := &Materialized{Schema: schema}
		for _, g := range total.groups {
			row := make([]types.Value, 0, len(schema))
			row = append(row, g.keys...)
			for ai, spec := range n.Aggs {
				row = append(row, g.states[ai].result(spec))
			}
			out.AppendRow(row)
		}
		return out, nil
	}}
}

// aggSink folds one part's batches into a private hash table.
type aggSink struct {
	ctx      *Context
	aggs     []plan.AggSpec
	keyEvals []expr.Evaluator
	argEvals []expr.Evaluator // nil entry: count(*)
	table    *aggHash
	keyBuf   []types.Value
	global   *group // the only group when there are no keys
	perGroup int64  // estimated bytes one group adds to table
	charged  int64  // bytes booked for table so far
}

func newAggSink(n *plan.Aggregate, ctx *Context) (*aggSink, error) {
	s := &aggSink{ctx: ctx, aggs: n.Aggs, table: newAggHash(len(n.Aggs)),
		keyEvals: make([]expr.Evaluator, len(n.Keys)), argEvals: make([]expr.Evaluator, len(n.Aggs)),
		keyBuf: make([]types.Value, len(n.Keys)),
		// The group with its key and state arrays, plus its bucket and
		// insertion-order entries.
		perGroup: 112 + int64(len(n.Keys))*int64(unsafe.Sizeof(types.Value{})) +
			int64(len(n.Aggs))*int64(unsafe.Sizeof(aggState{}))}
	var err error
	for i, k := range n.Keys {
		if s.keyEvals[i], err = expr.Compile(k); err != nil {
			return nil, err
		}
	}
	for i, g := range n.Aggs {
		if g.Arg == nil {
			continue
		}
		if s.argEvals[i], err = expr.Compile(g.Arg); err != nil {
			return nil, err
		}
	}
	if len(n.Keys) == 0 {
		s.global = s.table.lookup(nil)
	}
	return s, nil
}

func (s *aggSink) consume(b *types.Batch) error {
	var err error
	keyCols := make([]*types.Column, len(s.keyEvals))
	for i, ev := range s.keyEvals {
		if keyCols[i], err = ev(b); err != nil {
			return err
		}
	}
	argCols := make([]*types.Column, len(s.argEvals))
	for i, ev := range s.argEvals {
		if ev == nil {
			continue
		}
		if argCols[i], err = ev(b); err != nil {
			return err
		}
	}
	n := b.Len()
	for r := 0; r < n; r++ {
		g := s.global
		if g == nil {
			for i, kc := range keyCols {
				s.keyBuf[i] = kc.Value(r)
			}
			g = s.table.lookup(s.keyBuf)
		}
		for ai := range s.aggs {
			var v types.Value
			if argCols[ai] != nil {
				v = argCols[ai].Value(r)
			}
			g.states[ai].update(s.aggs[ai].Func, v)
		}
	}
	// Book the groups this batch created.
	grown := int64(len(s.table.groups))*s.perGroup - s.charged
	if err := s.ctx.charge("aggregate", grown); err != nil {
		return err
	}
	s.charged += grown
	return nil
}
