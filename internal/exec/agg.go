package exec

import (
	"math"
	"math/bits"
	"unsafe"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// aggAcc holds one aggregate's accumulators as arrays indexed by group id;
// only the arrays its function needs are non-nil. A sum of BIGINTs is exact,
// in 128 bits (sumHi·2⁶⁴ + sumLo), so that only a final sum out of range
// fails; a sum of DOUBLEs is a float.
type aggAcc struct {
	count []int64
	sumLo []uint64
	sumHi []int64
	sumF  []float64
	sumSq []float64 // stddev/variance
	// min/max so far, as the result column in the making: typed values plus
	// a NULL bitmap for numbers, boxed values for strings and bools.
	extI    []int64
	extF    []float64
	extNull []bool        // true until the group has seen a value
	ext     []types.Value // NULL until a value is seen
}

// growTo extends an accumulator array to n groups.
func growTo[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

// grow extends the arrays spec's function uses to n groups.
func (a *aggAcc) grow(n int, spec plan.AggSpec) {
	switch spec.Func {
	case plan.AggMin, plan.AggMax:
		switch spec.Arg.Type() {
		case types.Int64:
			a.extI, a.extNull = growTo(a.extI, n, 0), growTo(a.extNull, n, true)
		case types.Float64:
			a.extF, a.extNull = growTo(a.extF, n, 0), growTo(a.extNull, n, true)
		default:
			a.ext = growTo(a.ext, n, types.NewNull(spec.Type))
		}
		return
	case plan.AggSum, plan.AggAvg:
		if spec.Arg.Type() == types.Int64 {
			a.sumLo, a.sumHi = growTo(a.sumLo, n, 0), growTo(a.sumHi, n, 0)
		} else {
			a.sumF = growTo(a.sumF, n, 0)
		}
	case plan.AggStddev, plan.AggVariance:
		a.sumF, a.sumSq = growTo(a.sumF, n, 0), growTo(a.sumSq, n, 0)
	}
	a.count = growTo(a.count, n, 0)
}

func (a *aggAcc) bytes() int64 {
	return int64(cap(a.count)+cap(a.sumLo)+cap(a.sumHi)+cap(a.sumF)+cap(a.sumSq)+cap(a.extI)+cap(a.extF))*8 +
		int64(cap(a.extNull)) + int64(cap(a.ext))*int64(unsafe.Sizeof(types.Value{}))
}

// foldCount counts the non-NULL rows of each group.
func foldCount(ids []int32, nulls []bool, count []int64) {
	for i, id := range ids {
		if nulls == nil || !nulls[i] {
			count[id]++
		}
	}
}

// foldSum adds each non-NULL value to its group's count and sum.
func foldSum(ids []int32, vals []float64, nulls []bool, count []int64, sum []float64) {
	vals = vals[:len(ids)]
	for i, id := range ids {
		if nulls == nil || !nulls[i] {
			count[id]++
			sum[id] += vals[i]
		}
	}
}

// foldSumInt is foldSum for BIGINTs, summing in 128 bits.
func foldSumInt(ids []int32, vals []int64, nulls []bool, count []int64, lo []uint64, hi []int64) {
	vals = vals[:len(ids)]
	for i, id := range ids {
		if nulls == nil || !nulls[i] {
			count[id]++
			add128(&lo[id], &hi[id], uint64(vals[i]), vals[i]>>63)
		}
	}
}

// add128 adds the 128-bit integer (yHi, yLo) to (hi, lo).
func add128(lo *uint64, hi *int64, yLo uint64, yHi int64) {
	var carry uint64
	*lo, carry = bits.Add64(*lo, yLo, 0)
	*hi += yHi + int64(carry)
}

// foldSquares is foldSum plus the sum of squares, in the float domain.
func foldSquares[T int64 | float64](ids []int32, vals []T, nulls []bool, count []int64, sum, sumSq []float64) {
	for i, id := range ids {
		if nulls == nil || !nulls[i] {
			f := float64(vals[i])
			count[id]++
			sum[id] += f
			sumSq[id] += f * f
		}
	}
}

// foldExtreme keeps each group's smallest or largest non-NULL value in
// ext/extNull, in better's order: the first of equals stays (so does the
// first of -0 and +0), and a NaN compares equal to everything — it neither
// replaces a value nor, once it is a group's first, is replaced.
func foldExtreme[T int64 | float64](ids []int32, vals []T, nulls []bool, ext []T, extNull []bool, max bool) {
	for i, id := range ids {
		if nulls != nil && nulls[i] {
			continue
		}
		if v := vals[i]; extNull[id] || (max && v > ext[id]) || (!max && v < ext[id]) {
			ext[id], extNull[id] = v, false
		}
	}
}

// better reports whether v replaces cur as a group's min (want -1) or max
// (want +1).
func better(v, cur types.Value, f plan.AggFunc) bool {
	want := -1
	if f == plan.AggMax {
		want = 1
	}
	return !v.Null && (cur.Null || v.Compare(cur) == want)
}

// fold adds one batch to the accumulators: ids[i] is row i's group, arg the
// evaluated argument (nil for count(*)). One typed loop per function and
// argument type; only min/max of strings and bools box their values.
func (a *aggAcc) fold(f plan.AggFunc, ids []int32, arg *types.Column) {
	switch f {
	case plan.AggCountStar:
		foldCount(ids, nil, a.count)
	case plan.AggCount:
		foldCount(ids, arg.Nulls, a.count)
	case plan.AggSum, plan.AggAvg:
		switch arg.T {
		case types.Int64:
			foldSumInt(ids, arg.Ints, arg.Nulls, a.count, a.sumLo, a.sumHi)
		case types.Float64:
			foldSum(ids, arg.Floats, arg.Nulls, a.count, a.sumF)
		}
	case plan.AggStddev, plan.AggVariance:
		switch arg.T {
		case types.Int64:
			foldSquares(ids, arg.Ints, arg.Nulls, a.count, a.sumF, a.sumSq)
		case types.Float64:
			foldSquares(ids, arg.Floats, arg.Nulls, a.count, a.sumF, a.sumSq)
		}
	case plan.AggMin, plan.AggMax:
		switch arg.T {
		case types.Int64:
			foldExtreme(ids, arg.Ints, arg.Nulls, a.extI, a.extNull, f == plan.AggMax)
		case types.Float64:
			foldExtreme(ids, arg.Floats, arg.Nulls, a.extF, a.extNull, f == plan.AggMax)
		default:
			for i, id := range ids {
				if v := arg.Value(i); better(v, a.ext[id], f) {
					a.ext[id] = v
				}
			}
		}
	}
}

// foldAll is fold for a key-less aggregate, whose n rows — the positions
// sel, or the first n of arg when sel is nil — are all group 0: the count
// grows by the non-NULL rows, and the sums and extremes fold into locals
// that are stored once, adding in the row order fold adds in, so every sum
// has the same bits.
func (a *aggAcc) foldAll(f plan.AggFunc, n int, sel []int, arg *types.Column) {
	var nulls []bool
	if arg != nil {
		nulls = arg.Nulls
	}
	if a.count != nil {
		k := n
		if nulls != nil {
			for j := range n {
				if nulls[row(sel, j)] {
					k--
				}
			}
		}
		a.count[0] += int64(k)
	}
	switch f {
	case plan.AggSum, plan.AggAvg:
		switch arg.T {
		case types.Int64:
			a.sumLo[0], a.sumHi[0] = sumInts(arg.Ints, n, sel, nulls, a.sumLo[0], a.sumHi[0])
		case types.Float64:
			a.sumF[0] = sumFloats(arg.Floats, n, sel, nulls, a.sumF[0])
		}
	case plan.AggStddev, plan.AggVariance:
		switch arg.T {
		case types.Int64:
			a.sumF[0], a.sumSq[0] = sumSquares(arg.Ints, n, sel, nulls, a.sumF[0], a.sumSq[0])
		case types.Float64:
			a.sumF[0], a.sumSq[0] = sumSquares(arg.Floats, n, sel, nulls, a.sumF[0], a.sumSq[0])
		}
	case plan.AggMin, plan.AggMax:
		switch arg.T {
		case types.Int64:
			a.extI[0], a.extNull[0] = extremeOf(arg.Ints, n, sel, nulls, a.extI[0], a.extNull[0], f == plan.AggMax)
		case types.Float64:
			a.extF[0], a.extNull[0] = extremeOf(arg.Floats, n, sel, nulls, a.extF[0], a.extNull[0], f == plan.AggMax)
		default:
			for j := range n {
				if v := arg.Value(row(sel, j)); better(v, a.ext[0], f) {
					a.ext[0] = v
				}
			}
		}
	}
}

// row is the j-th row a fold reads: sel[j], or j when sel is nil.
func row(sel []int, j int) int {
	if sel != nil {
		return sel[j]
	}
	return j
}

// sumFloats adds the non-NULL values of the rows to sum in row order.
func sumFloats(vals []float64, n int, sel []int, nulls []bool, sum float64) float64 {
	switch {
	case sel == nil && nulls == nil:
		for _, v := range vals[:n] {
			sum += v
		}
	case nulls == nil:
		for _, i := range sel {
			sum += vals[i]
		}
	default:
		for j := range n {
			if i := row(sel, j); !nulls[i] {
				sum += vals[i]
			}
		}
	}
	return sum
}

// sumInts adds the non-NULL values of the rows to the 128-bit sum (hi, lo).
func sumInts(vals []int64, n int, sel []int, nulls []bool, lo uint64, hi int64) (uint64, int64) {
	for j := range n {
		if i := row(sel, j); nulls == nil || !nulls[i] {
			var carry uint64
			lo, carry = bits.Add64(lo, uint64(vals[i]), 0)
			hi += vals[i]>>63 + int64(carry)
		}
	}
	return lo, hi
}

// sumSquares is sumFloats plus the sum of squares, in the float domain.
func sumSquares[T int64 | float64](vals []T, n int, sel []int, nulls []bool, sum, sumSq float64) (float64, float64) {
	for j := range n {
		if i := row(sel, j); nulls == nil || !nulls[i] {
			f := float64(vals[i])
			sum += f
			sumSq += f * f
		}
	}
	return sum, sumSq
}

// extremeOf is foldExtreme for one group.
func extremeOf[T int64 | float64](vals []T, n int, sel []int, nulls []bool, ext T, null, max bool) (T, bool) {
	for j := range n {
		i := row(sel, j)
		if nulls != nil && nulls[i] {
			continue
		}
		if v := vals[i]; null || (max && v > ext) || (!max && v < ext) {
			ext, null = v, false
		}
	}
	return ext, null
}

// merge folds another part's partial states into a (parallel aggregation):
// ids[g] is the group here of o's group g.
func (a *aggAcc) merge(f plan.AggFunc, o *aggAcc, ids []int32) {
	// The other part's extremes are one more column of values to fold.
	if a.extI != nil {
		foldExtreme(ids, o.extI, o.extNull, a.extI, a.extNull, f == plan.AggMax)
	}
	if a.extF != nil {
		foldExtreme(ids, o.extF, o.extNull, a.extF, a.extNull, f == plan.AggMax)
	}
	for g, id := range ids {
		if a.count != nil {
			a.count[id] += o.count[g]
		}
		if a.sumLo != nil {
			add128(&a.sumLo[id], &a.sumHi[id], o.sumLo[g], o.sumHi[g])
		}
		if a.sumF != nil {
			a.sumF[id] += o.sumF[g]
		}
		if a.sumSq != nil {
			a.sumSq[id] += o.sumSq[g]
		}
		if a.ext != nil && better(o.ext[g], a.ext[id], f) {
			a.ext[id] = o.ext[g]
		}
	}
}

// intSum is group g's BIGINT sum, ok false when it is past int64.
func (a *aggAcc) intSum(g int) (v int64, ok bool) {
	lo := a.sumLo[g]
	return int64(lo), a.sumHi[g] == int64(lo)>>63
}

// floatSum is group g's sum as a DOUBLE; a BIGINT sum past int64 rounds
// twice.
func (a *aggAcc) floatSum(g int) float64 {
	if a.sumLo == nil {
		return a.sumF[g]
	}
	if v, ok := a.intSum(g); ok {
		return float64(v)
	}
	return float64(a.sumHi[g])*0x1p64 + float64(a.sumLo[g])
}

// errBigintRange is a BIGINT sum past int64.
var errBigintRange = types.ErrBigintRange

// result produces the final value of group g.
func (a *aggAcc) result(spec plan.AggSpec, g int) (types.Value, error) {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return types.NewInt(a.count[g]), nil
	case plan.AggMin, plan.AggMax:
		switch {
		case a.ext != nil:
			return a.ext[g], nil
		case a.extNull[g]:
			return types.NewNull(spec.Type), nil
		case a.extI != nil:
			return types.NewInt(a.extI[g]), nil
		}
		return types.NewFloat(a.extF[g]), nil
	}
	if a.count[g] == 0 {
		return types.NewNull(spec.Type), nil
	}
	n := float64(a.count[g])
	switch spec.Func {
	case plan.AggSum:
		if spec.Type != types.Int64 {
			return types.NewFloat(a.floatSum(g)), nil
		}
		if v, ok := a.intSum(g); ok {
			return types.NewInt(v), nil
		}
		return types.Value{}, errBigintRange
	case plan.AggAvg:
		return types.NewFloat(a.floatSum(g) / n), nil
	}
	// Population variance: E[x²] − E[x]², floored at zero against
	// floating-point cancellation.
	mean := a.sumF[g] / n
	variance := math.Max(a.sumSq[g]/n-mean*mean, 0)
	if spec.Func == plan.AggVariance {
		return types.NewFloat(variance), nil
	}
	return types.NewFloat(math.Sqrt(variance)), nil
}

// newAggOp is the hash-aggregation operator. Each part of its input (one
// morsel of a splittable pipeline, or the whole input) aggregates into a
// private key table, and the tables are merged at the end — the
// thread-local pattern the paper describes for its analytical operators
// (Section 6.1). The tables are charged to the query budget while they live
// and released once the output relation is built.
func newAggOp(n *plan.Aggregate) *blockingOp {
	schema := n.Schema()
	return &blockingOp{label: "aggregate", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		sinks, err := drive(ctx, selecting(partsOf(n.Child, ctx)), "", func(int, Operator) (*aggSink, error) {
			return newAggSink(n, ctx)
		})
		defer func() {
			for _, s := range sinks {
				if s != nil {
					s.table.release()
					s.scratch.release()
				}
			}
		}()
		if err != nil {
			return nil, err
		}
		// Merge worker tables into the first, in part order.
		total := sinks[0]
		for _, part := range sinks[1:] {
			ids := make([]int32, part.groups)
			if len(n.Keys) > 0 {
				total.table.merge(part.table, ids)
			}
			if err := total.grow(); err != nil {
				return nil, err
			}
			for ai := range total.accs {
				total.accs[ai].merge(n.Aggs[ai].Func, &part.accs[ai], ids)
			}
		}
		// The group keys are the table's columns as they stand; each
		// aggregate adds one column, a value per group.
		cols := append([]*types.Column{}, total.table.cols...)
		for ai, spec := range n.Aggs {
			col := types.NewColumn(spec.Type, total.groups)
			for g := 0; g < total.groups; g++ {
				v, err := total.accs[ai].result(spec, g)
				if err != nil {
					return nil, err
				}
				col.Append(v)
			}
			cols = append(cols, col)
		}
		out := &Materialized{Schema: schema}
		out.appendChunked(&types.Batch{Schema: schema, Cols: cols})
		return out, nil
	}}
}

// aggSink folds one part's batches into a private key table and the
// accumulator arrays its ids index. It reads selections: a bare-column
// argument of a key-less aggregate folds through the selection, and the
// keys and the other arguments are evaluated over the selected rows alone,
// as every expr.Evaluator reads a selection.
type aggSink struct {
	aggs     []plan.AggSpec
	keyEvals []expr.Evaluator
	argEvals []expr.Evaluator // nil entry: count(*), or a bare column in bare or same
	// bare is, per aggregate of a key-less sink, the input column a
	// bare-column argument folds, -1 for any other; same, per aggregate, the
	// first one of its bare column, whose evaluated column it reuses.
	bare, same []int
	table      *keyTable
	accs       []aggAcc
	scratch    scratch // the evaluators' buffers
	keyCols    []*types.Column
	argCols    []*types.Column
	// groups is the number of ids in use: the table's keys, or the one group
	// of a key-less aggregate, which exists before any input.
	groups int
	ids    []int32 // the batch's group ids; a key-less aggregate has none
}

func newAggSink(n *plan.Aggregate, ctx *Context) (*aggSink, error) {
	s := &aggSink{aggs: n.Aggs, accs: make([]aggAcc, len(n.Aggs)), bare: make([]int, len(n.Aggs)), same: make([]int, len(n.Aggs)),
		keyEvals: make([]expr.Evaluator, len(n.Keys)), argEvals: make([]expr.Evaluator, len(n.Aggs)),
		keyCols: make([]*types.Column, len(n.Keys)), argCols: make([]*types.Column, len(n.Aggs)),
		scratch: scratch{ctx: ctx, label: "aggregate"}}
	keyTypes := make([]types.Type, len(n.Keys))
	var err error
	for i, k := range n.Keys {
		keyTypes[i] = k.Type()
		if s.keyEvals[i], err = expr.Compile(k, ctx.Args, &s.scratch.Scratch); err != nil {
			return nil, err
		}
	}
	for i, g := range n.Aggs {
		s.bare[i], s.same[i] = -1, i
		ref, isRef := g.Arg.(*expr.ColRef)
		for j := range i {
			if r, ok := n.Aggs[j].Arg.(*expr.ColRef); ok && isRef && r.Index == ref.Index {
				s.same[i] = j
				break
			}
		}
		switch {
		case isRef && len(n.Keys) == 0:
			s.bare[i] = ref.Index
		case g.Arg != nil && s.same[i] == i:
			if s.argEvals[i], err = expr.Compile(g.Arg, ctx.Args, &s.scratch.Scratch); err != nil {
				return nil, err
			}
		}
	}
	s.table = newKeyTable(ctx, "aggregate", keyTypes, true)
	return s, s.grow()
}

// grow sizes the accumulators for every id the table has handed out and
// books table and accumulators.
func (s *aggSink) grow() error {
	s.groups = s.table.len()
	if len(s.keyEvals) == 0 {
		s.groups = 1
	}
	var held int64
	for ai := range s.accs {
		s.accs[ai].grow(s.groups, s.aggs[ai])
		held += s.accs[ai].bytes()
	}
	return s.table.book(held)
}

func (s *aggSink) consume(b *types.Batch) error {
	var err error
	n := b.Len()
	keyCols, argCols := s.keyCols, s.argCols
	for i, ev := range s.keyEvals {
		if keyCols[i], err = ev(b); err != nil {
			return err
		}
	}
	for i, ev := range s.argEvals {
		switch {
		case s.bare[i] >= 0:
			argCols[i] = b.Cols[s.bare[i]]
		case s.same[i] < i:
			argCols[i] = argCols[s.same[i]]
		case ev != nil:
			if argCols[i], err = ev(b); err != nil {
				return err
			}
		}
	}
	if len(keyCols) == 0 {
		for ai := range s.accs {
			var sel []int
			if s.bare[ai] >= 0 {
				sel = b.Sel
			}
			s.accs[ai].foldAll(s.aggs[ai].Func, n, sel, argCols[ai])
		}
		return s.scratch.book()
	}
	s.ids = sized(s.ids, n)
	ids := s.ids
	s.table.findOrAdd(keyCols, ids)
	if err := s.grow(); err != nil {
		return err
	}
	for ai := range s.accs {
		s.accs[ai].fold(s.aggs[ai].Func, ids, argCols[ai])
	}
	return s.scratch.book()
}
