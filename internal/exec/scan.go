package exec

import (
	"fmt"

	"lambdadb/internal/catalog"
	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/morsel"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// scanOp is the one leaf operator: Open gets a cursor and Next pulls it on
// the caller's goroutine, one batch per call. The leaves differ only in
// where the cursor comes from — a table range, an index probe, a bound
// working table or a VALUES list.
type scanOp struct {
	label  string // opLabel and panic-containment name
	schema types.Schema
	open   func(ctx *Context) (catalog.Cursor, error)
	// stored marks a table or index cursor: each batch it delivers fires
	// the exec.scan.batch fault point.
	stored bool
	// onClose, when set, is called once per Open with the rows delivered.
	onClose func(ctx *Context, rows int64)

	ctx  *Context
	cur  catalog.Cursor
	rows int64
}

// newTableScan reads the physical rows [lo, hi) of a stored table (hi < 0:
// to the end) at the statement's snapshot.
func newTableScan(n *plan.Scan, lo, hi int) *scanOp {
	return &scanOp{label: "scan", schema: n.Schema(), stored: true,
		open: func(ctx *Context) (catalog.Cursor, error) {
			return n.Rel.Cursor(ctx.Snapshot, lo, hi), nil
		}}
}

// newIndexScan probes a secondary index (point or range) at the statement's
// snapshot, emits the visible matching rows, and reports the probe's row
// count to the context's OnIndexProbe hook. A $N probe takes its key from
// the statement's arguments, coerced to the indexed column's type so that
// it compares like a stored value.
func newIndexScan(n *plan.IndexScan) *scanOp {
	keyType := types.Unknown
	if i := n.Schema().IndexOf(n.Column); i >= 0 {
		keyType = n.Schema()[i].Type
	}
	return &scanOp{label: "index-scan", schema: n.Schema(), stored: true,
		open: func(ctx *Context) (catalog.Cursor, error) {
			probe := catalog.IndexProbe{Eq: n.Eq, Lo: n.Lo, Hi: n.Hi, LoInc: n.LoInc, HiInc: n.HiInc}
			if n.EqParam > 0 {
				key, err := expr.Arg(ctx.Args, n.EqParam, keyType)
				if err != nil {
					return nil, err
				}
				probe.Eq = &key
			}
			return n.Rel.IndexCursor(n.Index, probe, ctx.Snapshot)
		},
		onClose: func(ctx *Context, rows int64) {
			if ctx.OnIndexProbe != nil {
				ctx.OnIndexProbe(rows)
			}
		}}
}

// newWorkingScan reads the rows [lo, hi) (hi < 0: to the end) of a named
// working table's current contents, bound in the execution context
// (ITERATE / recursive CTE bodies).
func newWorkingScan(n *plan.WorkingScan, lo, hi int) *scanOp {
	return &scanOp{label: "working-scan", schema: n.Sch,
		open: func(ctx *Context) (catalog.Cursor, error) {
			mat, ok := ctx.Bindings[n.Name]
			if !ok {
				return nil, fmt.Errorf("working table %q is not bound", n.Name)
			}
			c := catalog.Batches(mat.Batches)
			if lo > 0 || hi >= 0 {
				c = mat.SliceRows(lo, hi)
			}
			return &c, nil
		}}
}

// newValuesOp emits literal rows as one batch.
func newValuesOp(n *plan.Values) *scanOp {
	return &scanOp{label: "values", schema: n.Sch,
		open: func(*Context) (catalog.Cursor, error) {
			var c catalog.Batches
			if len(n.Rows) > 0 {
				b := types.NewBatch(n.Sch)
				for _, row := range n.Rows {
					b.AppendRow(row)
				}
				c = catalog.Batches{b}
			}
			return &c, nil
		}}
}

func (s *scanOp) Schema() types.Schema { return s.schema }

func (s *scanOp) Open(ctx *Context) (err error) {
	s.ctx, s.rows = ctx, 0
	s.cur, err = s.open(ctx)
	return err
}

// Next checks the query context before each pull, so cancellation is never
// reported as end of stream. A panic while pulling becomes an
// *InternalError under the leaf's label even when no drive loop is above.
func (s *scanOp) Next() (b *types.Batch, err error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	defer morsel.Contain(s.label, &err)
	if b = s.cur.Next(); b == nil {
		return nil, nil
	}
	if s.stored {
		if err := faultinject.Fire("exec.scan.batch"); err != nil {
			return nil, err
		}
	}
	s.rows += int64(b.Len())
	return b, nil
}

func (s *scanOp) Close() error {
	if s.cur != nil {
		s.cur = nil
		if s.onClose != nil {
			s.onClose(s.ctx, s.rows)
		}
	}
	return nil
}
