package exec

import (
	"sort"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// newSortOp materializes its input and emits it in key order. Each part of
// the input becomes a run — every row, or with a fused LIMIT the best k
// rows of a bounded heap, so ORDER BY ... LIMIT never materializes the full
// input; an input that arrives as one part (join results, aggregates) is
// cut into contiguous chunk runs. Runs are sorted on the worker pool and
// meet in a k-way loser-tree merge.
func newSortOp(n *plan.Sort) *blockingOp {
	schema := n.Schema()
	less := func(a, b []types.Value) bool {
		for _, k := range n.Keys {
			c := a[k.Col].Compare(b[k.Col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	return &blockingOp{label: "sort", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		sinks, err := drive(ctx, partsOf(n.Child, ctx), "", func(Operator) (*sortSink, error) {
			return &sortSink{ctx: ctx, k: n.TopK, heap: rowHeap{less: less}}, nil
		})
		if err != nil {
			return nil, err
		}
		runs := make([][][]types.Value, len(sinks))
		for i, s := range sinks {
			runs[i] = s.heap.rows
		}
		if len(runs) == 1 && n.TopK < 0 {
			runs = chunkRuns(runs[0], ctx.workers())
		}
		err = runParts(ctx, len(runs), func(i int) error {
			if err := faultinject.Fire("exec.sort.run"); err != nil {
				return err
			}
			r := runs[i]
			sort.SliceStable(r, func(a, b int) bool { return less(r[a], r[b]) })
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows := mergeRuns(runs, less)
		if n.TopK >= 0 && int64(len(rows)) > n.TopK {
			rows = rows[:n.TopK]
		}
		out := &Materialized{Schema: schema}
		for _, r := range rows {
			out.AppendRow(r)
		}
		return out, nil
	}}
}

// sortSink collects one part's rows as an unsorted run. With k >= 0 the rows
// stream through a bounded max-heap whose root is the worst kept row, so
// only k rows are ever held; fully-retained runs (k < 0) are charged against
// the query memory budget per input batch.
type sortSink struct {
	ctx  *Context
	k    int64
	heap rowHeap // k < 0: plain append order, no heap property
}

func (s *sortSink) consume(b *types.Batch) error {
	if s.k < 0 {
		if err := s.ctx.charge("sort", batchBytes(b)); err != nil {
			return err
		}
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		row := b.Row(i)
		switch {
		case s.k < 0:
			s.heap.rows = append(s.heap.rows, row)
		case int64(len(s.heap.rows)) < s.k:
			s.heap.push(row)
		case s.k > 0 && s.heap.less(row, s.heap.rows[0]):
			s.heap.replaceTop(row)
		}
	}
	return nil
}

// chunkRuns splits rows into at most `workers` contiguous chunks of at
// least minRowsPerWorker rows each (a single chunk below that), preserving
// input order across chunk boundaries for merge stability.
func chunkRuns(rows [][]types.Value, workers int) [][][]types.Value {
	n := len(rows)
	parts := workers
	if parts > 1 && n < 2*minRowsPerWorker {
		parts = 1
	}
	if parts > n/minRowsPerWorker && parts > 1 {
		parts = n / minRowsPerWorker
	}
	if parts <= 1 {
		return [][][]types.Value{rows}
	}
	chunk := (n + parts - 1) / parts
	out := make([][][]types.Value, 0, parts)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, rows[lo:hi:hi])
	}
	return out
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
		// with the unified schema.
		if b.Schema.Equal(u.Schema()) {
			return b, nil
		}
		return &types.Batch{Schema: u.Schema(), Cols: b.Cols}, nil
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

// rowHeap is a max-heap of rows under the sort order: the root is the
// worst kept row, so a better candidate replaces it in O(log k).
type rowHeap struct {
	rows [][]types.Value
	less func(a, b []types.Value) bool
}

func (h *rowHeap) push(row []types.Value) {
	h.rows = append(h.rows, row)
	i := len(h.rows) - 1
	for i > 0 {
		parent := (i - 1) / 2
		// Sift up while the child is worse (greater) than its parent.
		if !h.less(h.rows[parent], h.rows[i]) {
			break
		}
		h.rows[parent], h.rows[i] = h.rows[i], h.rows[parent]
		i = parent
	}
}

func (h *rowHeap) replaceTop(row []types.Value) {
	h.rows[0] = row
	i := 0
	n := len(h.rows)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.less(h.rows[worst], h.rows[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.less(h.rows[worst], h.rows[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.rows[i], h.rows[worst] = h.rows[worst], h.rows[i]
		i = worst
	}
}
