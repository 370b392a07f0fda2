package exec

import (
	"errors"
	"fmt"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// producerScan adapts a push-style storage scan — a table range or an
// index probe — to the pull-based operator tree. The scan runs in its own
// goroutine; batches flow through a small channel, and the producer stops
// at the next batch once the consumer closes the operator or the query is
// cancelled.
type producerScan struct {
	label  string // opLabel and panic-containment name
	schema types.Schema
	// push runs the storage scan, handing each batch to yield and stopping
	// with yield's error.
	push func(yield func(*types.Batch) error) error
	// onClose, when set, is called once per Open with the rows delivered.
	onClose func(ctx *Context, rows int64)

	ctx     *Context
	batches chan *types.Batch
	errCh   chan error
	done    chan struct{}
	opened  bool
	rows    int64
}

// newTableScan reads a stored table (optionally a physical row range).
func newTableScan(n *plan.Scan) *producerScan {
	return &producerScan{label: "scan", schema: n.Schema(),
		push: func(yield func(*types.Batch) error) error {
			hi := n.Hi
			if hi < 0 {
				hi = n.Rel.PhysicalRows()
			}
			return n.Rel.ScanRange(n.Snapshot, n.Lo, hi, yield)
		}}
}

// newIndexScan probes a secondary index (point or range), emits the
// visible matching rows, and reports the probe's row count to the
// context's OnIndexProbe hook.
func newIndexScan(n *plan.IndexScan) *producerScan {
	return &producerScan{label: "index-scan", schema: n.Schema(),
		push: func(yield func(*types.Batch) error) error {
			if n.Eq != nil {
				return n.Rel.IndexLookupEq(n.Index, *n.Eq, n.Snapshot, yield)
			}
			return n.Rel.IndexLookupRange(n.Index, n.Lo, n.Hi, n.LoInc, n.HiInc, n.Snapshot, yield)
		},
		onClose: func(ctx *Context, rows int64) {
			if ctx.OnIndexProbe != nil {
				ctx.OnIndexProbe(rows)
			}
		}}
}

func (s *producerScan) Schema() types.Schema { return s.schema }

func (s *producerScan) Open(ctx *Context) error {
	s.ctx = ctx
	// Depth 4 lets the producer run a few batches ahead of a consumer that
	// is busy with the previous one without buffering the whole scan.
	s.batches = make(chan *types.Batch, 4)
	s.errCh = make(chan error, 1)
	s.done = make(chan struct{})
	s.opened = true
	s.rows = 0
	cancelled := ctx.doneCh()
	go func() {
		defer close(s.batches)
		// The producer runs outside drive's containment boundary (a
		// goroutine of its own), so it carries its own: a panic here becomes an
		// *InternalError on errCh instead of killing the process.
		err := func() (err error) {
			defer containPanic(s.label, &err)
			return s.push(func(b *types.Batch) error {
				if err := faultinject.Fire("exec.scan.batch"); err != nil {
					return err
				}
				select {
				case s.batches <- b:
					return nil
				case <-s.done:
					return errScanCancelled
				case <-cancelled:
					return errScanCancelled
				}
			})
		}()
		if err != nil && !errors.Is(err, errScanCancelled) {
			s.errCh <- err
		}
	}()
	return nil
}

func (s *producerScan) Next() (*types.Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case err := <-s.errCh:
		return nil, err
	case b, ok := <-s.batches:
		if !ok {
			select {
			case err := <-s.errCh:
				return nil, err
			default:
			}
			// The producer also shuts down on cancellation; report that as
			// the context error, never as a clean end of stream.
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
			return nil, nil
		}
		s.rows += int64(b.Len())
		return b, nil
	}
}

func (s *producerScan) Close() error {
	if s.opened {
		close(s.done)
		s.opened = false
		if s.onClose != nil {
			s.onClose(s.ctx, s.rows)
		}
	}
	return nil
}

// workingScan reads the current contents of a named working table from the
// execution context (ITERATE / recursive CTE bodies).
type workingScan struct {
	node *plan.WorkingScan
	ctx  *Context
	it   matIterator
}

func newWorkingScan(n *plan.WorkingScan) *workingScan { return &workingScan{node: n} }

func (s *workingScan) Schema() types.Schema { return s.node.Sch }

func (s *workingScan) Open(ctx *Context) error {
	s.ctx = ctx
	mat, ok := ctx.Bindings[s.node.Name]
	if !ok {
		return fmt.Errorf("working table %q is not bound", s.node.Name)
	}
	if s.node.Lo > 0 || s.node.Hi > 0 {
		// Morsel-restricted scan over the bound working table.
		mat = &Materialized{Schema: mat.Schema, Batches: mat.SliceRows(s.node.Lo, s.node.Hi)}
	}
	s.it = matIterator{mat: mat}
	return nil
}

func (s *workingScan) Next() (*types.Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return s.it.next(), nil
}
func (s *workingScan) Close() error { return nil }

// valuesOp emits literal rows.
type valuesOp struct {
	node *plan.Values
	done bool
}

func newValuesOp(n *plan.Values) *valuesOp { return &valuesOp{node: n} }

func (v *valuesOp) Schema() types.Schema    { return v.node.Sch }
func (v *valuesOp) Open(ctx *Context) error { v.done = false; return nil }

func (v *valuesOp) Next() (*types.Batch, error) {
	if v.done || len(v.node.Rows) == 0 {
		return nil, nil
	}
	v.done = true
	b := types.NewBatch(v.node.Sch)
	for _, row := range v.node.Rows {
		b.AppendRow(row)
	}
	return b, nil
}

func (v *valuesOp) Close() error { return nil }
