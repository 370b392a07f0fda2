package exec

import (
	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// filterOp drops rows whose predicate is not true (NULL counts as false).
// A batch whose rows all pass goes through as it is; the survivors of any
// other are gathered into the operator's reusable output.
type filterOp struct {
	node    *plan.Filter
	child   Operator
	pred    expr.Evaluator
	scratch scratch
	out     outBatch
	idx     []int
}

func newFilterOp(n *plan.Filter, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
	if err != nil {
		return nil, err
	}
	f := &filterOp{node: n, child: child}
	if f.pred, err = expr.CompileLent(n.Pred, &f.scratch.Scratch); err != nil {
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
		c, err := f.pred(b)
		if err != nil {
			return nil, err
		}
		f.idx = selected(c, b.Len(), f.idx)
		switch len(f.idx) {
		case 0:
			continue
		case b.Len():
		default:
			b = f.out.gather(b, f.idx)
		}
		return b, f.scratch.book()
	}
}

// selected returns the rows of the first n where the predicate result c is
// true, not false or NULL, in buf: one pass, which reads a NULL bitmap only
// when c has one.
func selected(c *types.Column, n int, buf []int) []int {
	idx, kept := sized(buf, n), 0
	if c.Nulls == nil {
		for i, t := range c.Bools[:n] {
			idx[kept] = i
			if t {
				kept++
			}
		}
	} else {
		for i, t := range c.Bools[:n] {
			idx[kept] = i
			if t && !c.Nulls[i] {
				kept++
			}
		}
	}
	return idx[:kept]
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

// projectOp computes output expressions per batch. The output columns are
// fresh or passed through; only the expressions' inner nodes reuse buffers.
type projectOp struct {
	node    *plan.Project
	child   Operator
	evals   []expr.Evaluator
	schema  types.Schema
	scratch scratch
}

func newProjectOp(n *plan.Project, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
	if err != nil {
		return nil, err
	}
	p := &projectOp{node: n, child: child, evals: make([]expr.Evaluator, len(n.Exprs)), schema: n.Schema()}
	for i, e := range n.Exprs {
		if p.evals[i], err = expr.CompileScratch(e, &p.scratch.Scratch); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *projectOp) Schema() types.Schema { return p.schema }

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
	if b, err = projectBatch(b, p.evals, p.schema); err != nil {
		return nil, err
	}
	return b, p.scratch.book()
}

func projectBatch(b *types.Batch, evals []expr.Evaluator, schema types.Schema) (*types.Batch, error) {
	out := &types.Batch{Schema: schema, Cols: make([]*types.Column, len(evals))}
	for i, ev := range evals {
		c, err := ev(b)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = c
	}
	return out, nil
}
