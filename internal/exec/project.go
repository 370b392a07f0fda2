package exec

import (
	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// filterOp drops rows whose predicate is not true (NULL counts as false).
type filterOp struct {
	node  *plan.Filter
	child Operator
	pred  expr.Evaluator
}

func newFilterOp(n *plan.Filter, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
	if err != nil {
		return nil, err
	}
	pred, err := expr.Compile(n.Pred)
	if err != nil {
		return nil, err
	}
	return &filterOp{node: n, child: child, pred: pred}, nil
}

func (f *filterOp) Schema() types.Schema    { return f.child.Schema() }
func (f *filterOp) Open(ctx *Context) error { return f.child.Open(ctx) }
func (f *filterOp) Close() error            { return f.child.Close() }

func (f *filterOp) Next() (*types.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out, err := applyFilter(b, f.pred)
		if err != nil {
			return nil, err
		}
		if out != nil && out.Len() > 0 {
			return out, nil
		}
	}
}

// applyFilter evaluates pred over b and returns the surviving rows (b
// itself when all pass, nil when none).
func applyFilter(b *types.Batch, pred expr.Evaluator) (*types.Batch, error) {
	c, err := pred(b)
	if err != nil {
		return nil, err
	}
	switch idx := selected(c, b.Len()); len(idx) {
	case 0:
		return nil, nil
	case b.Len():
		return b, nil
	default:
		return b.Gather(idx), nil
	}
}

// selected returns the rows of the first n where the predicate result c is
// true, not false or NULL: one pass, which reads a NULL bitmap only when c
// has one.
func selected(c *types.Column, n int) []int {
	idx, kept := make([]int, n), 0
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

// projectOp computes output expressions per batch.
type projectOp struct {
	node   *plan.Project
	child  Operator
	evals  []expr.Evaluator
	schema types.Schema
}

func newProjectOp(n *plan.Project, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
	if err != nil {
		return nil, err
	}
	evals := make([]expr.Evaluator, len(n.Exprs))
	for i, e := range n.Exprs {
		ev, err := expr.Compile(e)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	return &projectOp{node: n, child: child, evals: evals, schema: n.Schema()}, nil
}

func (p *projectOp) Schema() types.Schema    { return p.schema }
func (p *projectOp) Open(ctx *Context) error { return p.child.Open(ctx) }
func (p *projectOp) Close() error            { return p.child.Close() }

func (p *projectOp) Next() (*types.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	return projectBatch(b, p.evals, p.schema)
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
