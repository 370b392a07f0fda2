package exec

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// newSortOp materializes its input and emits it in key order. The parts of
// the input collect their rows on the worker pool — every batch, or under a
// fused LIMIT only each part's best k rows, so ORDER BY ... LIMIT holds
// O(parts·k) rows — and one stable sort of their concatenation in part order
// orders the result, so tied rows keep scan order. Under a LIMIT the parts
// share one bound, the tightest k-th row any of them has published.
func newSortOp(n *plan.Sort) *blockingOp {
	schema := n.Schema()
	return &blockingOp{label: "sort", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		bound := &kthRow{}
		sinks, err := drive(ctx, partsOf(n.Child, ctx), "exec.sort.run", func(part int, _ Operator) (*sortSink, error) {
			return &sortSink{ctx: ctx, keys: n.Keys, k: n.TopK, part: part, bound: bound, rows: Materialized{Schema: schema}}, nil
		})
		if err != nil {
			return nil, err
		}
		all := &Materialized{Schema: schema}
		for _, s := range sinks {
			for _, b := range s.rows.Batches {
				all.Append(b)
			}
		}
		out := &Materialized{Schema: schema}
		out.appendChunked(sorted(n.Keys, all, n.TopK))
		return out, nil
	}}
}

// kthRow is the bound a top-k sort's parts share: the last row of the
// tightest best-k batch any part has published, and that part's index.
type kthRow struct{ p atomic.Pointer[bestRows] }

type bestRows struct {
	rows *types.Batch // k rows in key order, never written again
	part int
}

// publish makes b the bound unless it sorts after the current one. Of two
// tied bounds the earlier part's wins, as it turns away more ties (see
// sortSink.admit).
func (r *kthRow) publish(keys []plan.SortKey, b *bestRows) {
	for {
		cur := r.p.Load()
		if cur != nil {
			c := compareRows(keys, b.rows, b.rows.Len()-1, cur.rows, cur.rows.Len()-1)
			if c > 0 || c == 0 && b.part >= cur.part {
				return
			}
		}
		if r.p.CompareAndSwap(cur, b) {
			return
		}
	}
}

// sortSink collects one part's rows. A full sort (k < 0) keeps every batch,
// charged to the query budget. A top-k sort keeps the rows that admit lets
// through; once it holds twice k, one sort of them keeps the part's best k,
// which it publishes as the shared bound. Sorting that soon keeps the bound
// close behind the best rows seen, for the cost of a sort per k admitted.
type sortSink struct {
	ctx   *Context
	keys  []plan.SortKey
	k     int64
	part  int // the part's index, its place in scan order
	bound *kthRow
	rows  Materialized
	keep  []int
	away  []int // the rows a DESC select turns away
}

func (s *sortSink) consume(b *types.Batch) error {
	switch {
	case s.k < 0:
		if err := s.ctx.charge("sort", batchBytes(b)); err != nil {
			return err
		}
	case s.k == 0:
		return nil
	default:
		if b = s.admit(b); b == nil {
			return nil
		}
	}
	s.rows.Append(b)
	if s.k >= 0 && int64(s.rows.NumRows)-s.k >= s.k {
		best := sorted(s.keys, &s.rows, s.k)
		s.rows = Materialized{Schema: s.rows.Schema}
		s.rows.Append(best)
		s.bound.publish(s.keys, &bestRows{rows: best, part: s.part})
	}
	return nil
}

// admit returns the rows of b that may still be among the sort's first k,
// or nil if there are none: those that sort before the bound's row. A row
// tied with it is admitted only if the bound comes from a later part, as
// it may win on position; the k rows behind a bound of its own part or an
// earlier one precede it in scan order. The first key, when it is BIGINT
// or DOUBLE and the bound's value in it a number, is a select that leaves
// only the rows tied on it to compareRows.
func (s *sortSink) admit(b *types.Batch) *types.Batch {
	bound := s.bound.p.Load()
	if bound == nil {
		return b
	}
	strict := bound.part <= s.part
	n, last, first := b.Len(), bound.rows.Len()-1, s.keys[0]
	before := func(keys []plan.SortKey, i int) bool {
		c := compareRows(keys, b, i, bound.rows, last)
		return c < 0 || c == 0 && !strict
	}
	col, v := b.Cols[first.Col], bound.rows.Cols[first.Col].Value(last)
	keep := s.keep[:0]
	if v.Null || !v.T.IsNumeric() || math.IsNaN(v.F) {
		for i := range n {
			if before(s.keys, i) {
				keep = append(keep, i)
			}
		}
	} else {
		m := 0
		keep = s.candidates(col, n, v, first.Desc)
		for _, i := range keep {
			tied := !col.IsNull(i) && (col.T == types.Int64 && col.Ints[i] == v.I || col.T == types.Float64 && col.Floats[i] == v.F)
			if !tied || before(s.keys[1:], i) {
				keep[m] = i
				m++
			}
		}
		keep = keep[:m]
	}
	s.keep = keep
	switch len(keep) {
	case 0:
		return nil
	case n:
		return b
	}
	return b.Gather(keep)
}

// candidates returns, in s.keep, the rows among the first n of col, a
// BIGINT or DOUBLE column, that sort before the number v or tie with it in
// compareRows' order. Under ASC they are x <= v, a select, and the NULL
// rows. Under DESC the select x < v turns away the rows that sort after v,
// NULL and NaN left out, as IEEE 754 compares, and the candidates are the
// rows it leaves but NULL, which sorts last. Those are few: the t-th sits
// at j+t, where j is the first turned-away row with more than t rows left
// below it, so a binary search finds each.
func (s *sortSink) candidates(col *types.Column, n int, v types.Value, desc bool) []int {
	out := slices.Grow(s.keep[:0], n)
	if !desc {
		out = expr.SelectCompare(expr.OpLe, col, n, v, nil, out)
		if col.Nulls != nil {
			for i, null := range col.Nulls[:n] {
				if null {
					out = append(out, i)
				}
			}
		}
		return out
	}
	away := expr.SelectCompare(expr.OpLt, col, n, v, nil, slices.Grow(s.away[:0], n))
	for t := range n - len(away) {
		j := sort.Search(len(away), func(j int) bool { return away[j]-j > t })
		if !col.IsNull(j + t) {
			out = append(out, j+t)
		}
	}
	s.away = away
	return out
}

// sorted concatenates m's batches and returns their rows in key order, the
// first k of them when k >= 0. The permutation is stable — tied rows keep
// their order in m — because ties are broken by position, which makes the
// order total and lets the faster unstable sort produce it.
func sorted(keys []plan.SortKey, m *Materialized, k int64) *types.Batch {
	rows := flatten(m)
	perm := make([]int, m.NumRows)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(i, j int) int {
		if c := compareRows(keys, rows, i, rows, j); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	if k >= 0 && int64(len(perm)) > k {
		perm = perm[:k]
	}
	return rows.Gather(perm)
}

// compareRows orders row i of a against row j of b, two batches of the
// sort's schema, by the sort keys: NULL sorts first and NaN after every
// number, and a DESC key negates the result. That is the engine's order,
// not PostgreSQL's, whose default puts NULL last under ASC and first under
// DESC; NaN is placed as PostgreSQL places it.
func compareRows(keys []plan.SortKey, a *types.Batch, i int, b *types.Batch, j int) int {
	for _, k := range keys {
		x, y := a.Cols[k.Col], b.Cols[k.Col]
		var c int
		switch xn, yn := x.IsNull(i), y.IsNull(j); {
		case xn || yn:
			c = cmpBool(!xn, !yn)
		case x.T == types.Int64:
			c = cmp.Compare(x.Ints[i], y.Ints[j])
		case x.T == types.Float64:
			c = cmp.Compare(x.Floats[i], y.Floats[j])
			if math.IsNaN(x.Floats[i]) != math.IsNaN(y.Floats[j]) {
				c = -c // cmp.Compare puts NaN before every number
			}
		case x.T == types.String:
			c = strings.Compare(x.Strs[i], y.Strs[j])
		case x.T == types.Bool:
			c = cmpBool(x.Bools[i], y.Bools[j])
		}
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// cmpBool orders false before true.
func cmpBool(x, y bool) int {
	if x == y {
		return 0
	}
	if x {
		return 1
	}
	return -1
}

// limitOp skips Offset rows and passes through at most N.
type limitOp struct {
	node      *plan.Limit
	child     Operator
	toSkip    int64
	remaining int64
}

func newLimitOp(n *plan.Limit, ctx *Context) (Operator, error) {
	child, err := buildWith(whole(n.Child), ctx)
	if err != nil {
		return nil, err
	}
	return &limitOp{node: n, child: child}, nil
}

func (l *limitOp) Schema() types.Schema { return l.child.Schema() }

func (l *limitOp) Open(ctx *Context) error {
	l.toSkip = l.node.Offset
	l.remaining = l.node.N
	if l.remaining < 0 {
		l.remaining = int64(^uint64(0) >> 1) // effectively unlimited
	}
	return l.child.Open(ctx)
}

func (l *limitOp) Next() (*types.Batch, error) {
	for l.remaining > 0 {
		b, err := l.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := int64(b.Len())
		if l.toSkip >= n {
			l.toSkip -= n
			continue
		}
		if l.toSkip > 0 {
			b = b.Slice(int(l.toSkip), int(n))
			n -= l.toSkip
			l.toSkip = 0
		}
		if n > l.remaining {
			b = b.Slice(0, int(l.remaining))
			n = l.remaining
		}
		l.remaining -= n
		return b, nil
	}
	return nil, nil
}

func (l *limitOp) Close() error { return l.child.Close() }

// distinctOp drops duplicate rows: DISTINCT, and UNION without ALL over the
// concatenation of its inputs. The rows seen live in a key table charged
// under label.
type distinctOp struct {
	child Operator
	label string
	seen  *keyTable
}

func newDistinctOp(n *plan.Distinct, ctx *Context) (Operator, error) {
	child, err := buildWith(whole(n.Child), ctx)
	if err != nil {
		return nil, err
	}
	return &distinctOp{child: child, label: "distinct"}, nil
}

func (d *distinctOp) Schema() types.Schema { return d.child.Schema() }

func (d *distinctOp) Open(ctx *Context) error {
	d.seen = newRowTable(ctx, d.label, d.Schema())
	return d.child.Open(ctx)
}

func (d *distinctOp) Next() (*types.Batch, error) {
	for {
		b, err := d.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if b, err = d.seen.fresh(b); err != nil || b.Len() > 0 {
			return b, err
		}
	}
}

func (d *distinctOp) Close() error {
	d.seen.release()
	return d.child.Close()
}

// unionOp concatenates two inputs (UNION ALL).
type unionOp struct {
	l, r    Operator
	onRight bool
}

func newUnionOp(n *plan.Union, ctx *Context) (Operator, error) {
	l, err := buildWith(whole(n.L), ctx)
	if err != nil {
		return nil, err
	}
	r, err := buildWith(whole(n.R), ctx)
	if err != nil {
		return nil, err
	}
	if n.All {
		return &unionOp{l: l, r: r}, nil
	}
	return &distinctOp{child: &unionOp{l: l, r: r}, label: "union"}, nil
}

func (u *unionOp) Schema() types.Schema { return u.l.Schema() }

func (u *unionOp) Open(ctx *Context) error {
	u.onRight = false
	if err := u.l.Open(ctx); err != nil {
		return err
	}
	return u.r.Open(ctx)
}

func (u *unionOp) Next() (*types.Batch, error) {
	for {
		src := u.l
		if u.onRight {
			src = u.r
		}
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if u.onRight {
				return nil, nil
			}
			u.onRight = true
			continue
		}
		// Left batches pass through unchanged, right batches are re-labeled
		// with the unified schema: a header that shares b's columns, and so
		// is reused when b's is.
		if b.Schema.Equal(u.Schema()) {
			return b, nil
		}
		return &types.Batch{Schema: u.Schema(), Cols: b.Cols, Reused: b.Reused}, nil
	}
}

func (u *unionOp) Close() error {
	err1 := u.l.Close()
	err2 := u.r.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
