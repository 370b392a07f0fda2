package exec

import (
	"slices"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// filterOp drops rows whose predicate is not true (NULL counts as false).
// A batch whose rows all pass goes through as it is. The survivors of any
// other are lent as a selection over the batch's columns when the consumer
// reads selections (part.sel), and gathered into the operator's reusable
// output otherwise.
type filterOp struct {
	node    *plan.Filter
	child   Operator
	pred    expr.Selector
	lends   bool
	scratch scratch
	out     outBatch
	lent    types.Batch
	idx     []int
}

func newFilterOp(n *plan.Filter, in part, ctx *Context, lends bool) (Operator, error) {
	child, err := buildWith(in, ctx)
	if err != nil {
		return nil, err
	}
	f := &filterOp{node: n, child: child, lends: lends}
	if f.pred, err = expr.CompileSelect(n.Pred, ctx.Args, &f.scratch.Scratch); err != nil {
		return nil, err
	}
	f.out = newOutBatch(&f.scratch.Scratch, child.Schema())
	return f, nil
}

func (f *filterOp) Schema() types.Schema { return f.child.Schema() }

func (f *filterOp) Open(ctx *Context) error {
	f.scratch.ctx, f.scratch.label = ctx, "filter"
	return f.child.Open(ctx)
}

func (f *filterOp) Close() error {
	f.scratch.release()
	return f.child.Close()
}

func (f *filterOp) Next() (*types.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if f.idx, err = f.pred(b, nil, f.idx); err != nil {
			return nil, err
		}
		switch len(f.idx) {
		case 0:
			continue
		case b.Len():
		default:
			if f.lends {
				f.lent = types.Batch{Schema: b.Schema, Cols: b.Cols, Sel: f.idx, Reused: true}
				b = &f.lent
			} else {
				b = f.out.gather(b, f.idx)
			}
		}
		return b, f.scratch.book()
	}
}

// writtenBytes counts b, the last output, when the filter gathered it; a
// batch passed through or lent as a selection is its input's.
func (f *filterOp) writtenBytes(b *types.Batch) int64 {
	if b != &f.out.header {
		return 0
	}
	return batchBytes(b)
}

// outBatch is an operator's reusable output: one Buffer per column, from
// the operator's scratch, and one header, lent marked Reused and rewritten
// by the operator's next output. Both are made by the first output.
type outBatch struct {
	header types.Batch
	bufs   []*types.Buffer
	pool   *types.Scratch
}

func newOutBatch(s *types.Scratch, schema types.Schema) outBatch {
	return outBatch{header: types.Batch{Schema: schema, Reused: true}, pool: s}
}

// cols returns the output's columns from position at on.
func (o *outBatch) cols(at int) []*types.Column {
	if o.header.Cols == nil {
		o.header.Cols = make([]*types.Column, len(o.header.Schema))
		for range o.header.Cols {
			o.bufs = append(o.bufs, o.pool.Buffer())
		}
	}
	return o.header.Cols[at:]
}

// gather returns the rows of b selected by idx.
func (o *outBatch) gather(b *types.Batch, idx []int) *types.Batch {
	o.header.Schema = b.Schema
	o.gatherAt(0, b.Cols, idx)
	return &o.header
}

// gatherAt sets the output's columns from position at on to the rows of
// cols selected by idx.
func (o *outBatch) gatherAt(at int, cols []*types.Column, idx []int) {
	out := o.cols(at)
	for j, c := range cols {
		out[j] = o.bufs[at+j].Gather(c, idx)
	}
}

// projectOp computes output expressions per batch. It lends what it
// computes: expr.Compile writes a computed column into a Buffer of the
// operator's, reused from batch to batch, and the output header is reused
// too, lent marked Reused. A column reference passes its input column
// through. A consumer that keeps a batch keeps types.Retain of it, which
// copies the computed columns.
type projectOp struct {
	node    *plan.Project
	child   Operator
	evals   []expr.Evaluator
	out     types.Batch
	in      *types.Batch // the last input, for writtenBytes
	scratch scratch
}

func newProjectOp(n *plan.Project, in part, ctx *Context) (Operator, error) {
	child, err := buildWith(in, ctx)
	if err != nil {
		return nil, err
	}
	p := &projectOp{node: n, child: child, evals: make([]expr.Evaluator, len(n.Exprs)),
		out: types.Batch{Schema: n.Schema(), Cols: make([]*types.Column, len(n.Exprs)), Reused: true}}
	for i, e := range n.Exprs {
		if p.evals[i], err = expr.Compile(e, ctx.Args, &p.scratch.Scratch); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *projectOp) Schema() types.Schema { return p.out.Schema }

func (p *projectOp) Open(ctx *Context) error {
	p.scratch.ctx, p.scratch.label = ctx, "project"
	return p.child.Open(ctx)
}

func (p *projectOp) Close() error {
	p.scratch.release()
	return p.child.Close()
}

func (p *projectOp) Next() (*types.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	p.in = b
	for i, ev := range p.evals {
		if p.out.Cols[i], err = ev(b); err != nil {
			return nil, err
		}
	}
	return &p.out, p.scratch.book()
}

// writtenBytes counts the columns of b, the last output, that the
// projection computed; a column it passed through is its input's.
func (p *projectOp) writtenBytes(b *types.Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		if !slices.Contains(p.in.Cols, c) {
			n += columnBytes(c, b.Len())
		}
	}
	return n
}
