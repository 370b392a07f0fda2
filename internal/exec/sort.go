package exec

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// newSortOp materializes its input and emits it in key order. The parts of
// the input collect their rows on the worker pool — every batch, or under a
// fused LIMIT only each part's best k rows, so ORDER BY ... LIMIT holds
// O(parts·k) rows — and one stable sort of their concatenation in part order
// orders the result, so tied rows keep scan order.
func newSortOp(n *plan.Sort) *blockingOp {
	schema := n.Schema()
	return &blockingOp{label: "sort", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		sinks, err := drive(ctx, partsOf(n.Child, ctx), "exec.sort.run", func(Operator) (*sortSink, error) {
			return &sortSink{ctx: ctx, keys: n.Keys, k: n.TopK, rows: Materialized{Schema: schema}}, nil
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

// sortSink collects one part's rows. A full sort (k < 0) keeps every batch,
// charged to the query budget. A top-k sort keeps the part's best k rows so
// far as one sorted batch, best, at the head of rows, and behind it the rows
// admitted since: only those that sort strictly before best's last row, so a
// later row never displaces a tied earlier one. Once rows holds max(k, a
// batch) rows beyond its first k, one sort of rows makes the next best.
type sortSink struct {
	ctx  *Context
	keys []plan.SortKey
	k    int64
	rows Materialized
	best *types.Batch // nil until rows first held k rows
	keep []int
}

func (s *sortSink) consume(b *types.Batch) error {
	switch {
	case s.k < 0:
		if err := s.ctx.charge("sort", batchBytes(b)); err != nil {
			return err
		}
	case s.k == 0:
		return nil
	case s.best != nil:
		b = s.admit(b)
	}
	s.rows.Append(b)
	if s.k >= 0 && int64(s.rows.NumRows)-s.k >= max(s.k, types.BatchSize) {
		s.best = sorted(s.keys, &s.rows, s.k)
		s.rows = Materialized{Schema: s.rows.Schema}
		s.rows.Append(s.best)
	}
	return nil
}

// admit returns the rows of b that sort strictly before best's last row.
func (s *sortSink) admit(b *types.Batch) *types.Batch {
	last := s.best.Len() - 1
	s.keep = s.keep[:0]
	for i := range b.Len() {
		if compareRows(s.keys, b, i, s.best, last) < 0 {
			s.keep = append(s.keep, i)
		}
	}
	if len(s.keep) == b.Len() {
		return b
	}
	return b.Gather(s.keep)
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
// number, as in PostgreSQL, and a DESC key negates the result.
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

func newLimitOp(n *plan.Limit, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
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

func newDistinctOp(n *plan.Distinct, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
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

func newUnionOp(n *plan.Union, sc *StatsCollector) (Operator, error) {
	l, err := buildWith(n.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := buildWith(n.R, sc)
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
