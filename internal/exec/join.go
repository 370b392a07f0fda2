package exec

import (
	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// rowRef addresses a row inside a Materialized relation.
type rowRef struct {
	batch int
	row   int
}

// hashTable is a partitioned chained hash table over materialized rows
// keyed by a set of columns. Partition p owns the keys with hash&mask == p,
// so the parallel build needs no locks: each partition is written by
// exactly one worker, and probing is read-only. NULL keys never enter the
// table (SQL equi-join semantics).
type hashTable struct {
	mat     *Materialized
	keyCols []int
	parts   []map[uint64][]rowRef
	mask    uint64
}

func (ht *hashTable) lookup(h uint64) []rowRef { return ht.parts[h&ht.mask][h] }

// hashTableBytesPerRow is the accounting estimate for one build-side row's
// hash-table footprint: a rowRef plus amortized map bucket overhead.
const hashTableBytesPerRow = 48

// buildHashTable constructs the table; when the build side is large enough
// and the context allows parallelism it builds in parallel: one pass hashes
// every row's keys (parallel over batches), then each partition worker
// inserts its own slice of the hash space. The table's footprint is charged
// against the query memory budget.
func buildHashTable(mat *Materialized, keyCols []int, ctx *Context) (*hashTable, error) {
	if err := ctx.charge("join", int64(mat.NumRows)*hashTableBytesPerRow); err != nil {
		return nil, err
	}
	if ctx.workers() > 1 && mat.NumRows >= 2*minRowsPerWorker {
		return buildHashTableParallel(mat, keyCols, ctx)
	}
	ht := &hashTable{mat: mat, keyCols: keyCols,
		parts: []map[uint64][]rowRef{make(map[uint64][]rowRef, mat.NumRows)}}
	for bi, b := range mat.Batches {
		n := b.Len()
		for i := 0; i < n; i++ {
			h, ok := rowKeyHash(b, keyCols, i)
			if !ok {
				continue // NULL key never joins
			}
			ht.parts[0][h] = append(ht.parts[0][h], rowRef{bi, i})
		}
	}
	return ht, nil
}

func buildHashTableParallel(mat *Materialized, keyCols []int, ctx *Context) (*hashTable, error) {
	p := 1
	for p < ctx.workers() {
		p <<= 1
	}
	ht := &hashTable{mat: mat, keyCols: keyCols,
		parts: make([]map[uint64][]rowRef, p), mask: uint64(p - 1)}
	// Pass 1: hash every row's key columns, parallel over batches. A NULL
	// key marks the row invalid.
	hashes := make([][]uint64, len(mat.Batches))
	valid := make([][]bool, len(mat.Batches))
	if err := runParts(ctx, len(mat.Batches), func(bi int) error {
		b := mat.Batches[bi]
		n := b.Len()
		hs := make([]uint64, n)
		ok := make([]bool, n)
		for i := 0; i < n; i++ {
			hs[i], ok[i] = rowKeyHash(b, keyCols, i)
		}
		hashes[bi], valid[bi] = hs, ok
		return nil
	}); err != nil {
		return nil, err
	}
	// Pass 2: each partition worker scans the precomputed hashes and keeps
	// only its share. Insertion order within a partition matches row order,
	// so probe results are deterministic.
	est := mat.NumRows / p
	if err := runParts(ctx, p, func(pi int) error {
		part := make(map[uint64][]rowRef, est)
		target := uint64(pi)
		for bi, hs := range hashes {
			ok := valid[bi]
			for i, h := range hs {
				if ok[i] && h&ht.mask == target {
					part[h] = append(part[h], rowRef{bi, i})
				}
			}
		}
		ht.parts[pi] = part
		return nil
	}); err != nil {
		return nil, err
	}
	return ht, nil
}

// rowKeyHash hashes the key columns of row i; ok is false when any key is
// NULL.
func rowKeyHash(b *types.Batch, cols []int, i int) (uint64, bool) {
	var h uint64
	for _, c := range cols {
		col := b.Cols[c]
		if col.IsNull(i) {
			return 0, false
		}
		h = types.HashCombine(h, col.Value(i).Hash())
	}
	return h, true
}

// keysEqual compares key columns between two rows.
func keysEqual(a *types.Batch, aCols []int, ai int, b *types.Batch, bCols []int, bi int) bool {
	for k := range aCols {
		if !a.Cols[aCols[k]].Value(ai).Equal(b.Cols[bCols[k]].Value(bi)) {
			return false
		}
	}
	return true
}

// joinOp executes inner, left-outer, and cross joins. With equi keys it is
// a hash join — partition-parallel build and, when the probe side is a
// splittable scan pipeline, morsel-parallel probe; otherwise a block
// nested-loop join.
type joinOp struct {
	node   *plan.Join
	schema types.Schema

	ctx *Context

	// Hash-join state.
	ht          *hashTable
	buildIsLeft bool
	probe       Operator // serial streaming probe
	pr          *prober  // serial streaming probe state
	parallel    bool     // probe ran morsel-parallel in Open
	it          matIterator

	pendingOut []*types.Batch

	// Nested-loop state.
	left      Operator
	right     Operator
	onEval    expr.Evaluator
	rightMat  *Materialized
	nlLeft    *types.Batch
	nlMatched []bool
	nlRight   int
	done      bool
}

func newJoinOp(n *plan.Join) (Operator, error) {
	// Compile condition expressions eagerly so malformed plans fail at
	// build time; per-worker probers recompile their own copies.
	if n.Residual != nil {
		if _, err := expr.Compile(n.Residual); err != nil {
			return nil, err
		}
	}
	if n.On != nil && len(n.EquiLeft) == 0 {
		if _, err := expr.Compile(n.On); err != nil {
			return nil, err
		}
	}
	return &joinOp{node: n, schema: n.Schema()}, nil
}

func (j *joinOp) Schema() types.Schema { return j.schema }

func (j *joinOp) Open(ctx *Context) error {
	j.ctx = ctx
	j.done = false
	j.parallel = false
	j.pendingOut = nil
	useHash := len(j.node.EquiLeft) > 0 &&
		(j.node.Type == plan.InnerJoin || j.node.Type == plan.LeftJoin)
	if useHash {
		return j.openHash(ctx)
	}
	return j.openLoop(ctx)
}

// openHash runs the two hash-join phases. Build: drain the build side
// (morsel-parallel when its pipeline splits) and build the partitioned
// table. Probe: when the probe side splits, each worker streams its morsels
// against the shared read-only table with private output buffers —
// concatenating per-part outputs in part order reproduces the serial output
// order exactly; otherwise probe batches stream through Next as before.
func (j *joinOp) openHash(ctx *Context) error {
	// Inner joins build on the left (the optimizer put the smaller side
	// there); left-outer joins must probe with the left side, so they build
	// on the right.
	j.buildIsLeft = j.node.Type == plan.InnerJoin
	buildPlan, buildKeys := j.node.L, j.node.EquiLeft
	probePlan := j.node.R
	if !j.buildIsLeft {
		buildPlan, buildKeys = j.node.R, j.node.EquiRight
		probePlan = j.node.L
	}
	if err := faultinject.Fire("exec.join.build"); err != nil {
		return err
	}
	mat, err := materialize(partsOf(buildPlan, ctx), ctx)
	if err != nil {
		return err
	}
	j.ht, err = buildHashTable(mat, buildKeys, ctx)
	if err != nil {
		return err
	}

	if parts := partsOf(probePlan, ctx); len(parts) > 1 {
		sinks, err := drive(ctx, parts, "exec.join.probe", func(Operator) (*probeSink, error) {
			pr, err := j.newProber()
			return &probeSink{pr: pr}, err
		})
		if err != nil {
			return err
		}
		res := &Materialized{Schema: j.schema}
		for _, s := range sinks {
			for _, b := range s.out {
				res.Append(b)
			}
		}
		j.parallel = true
		j.it = matIterator{mat: res}
		return nil
	}

	pr, err := j.newProber()
	if err != nil {
		return err
	}
	j.pr = pr
	op, err := buildFor(probePlan, ctx)
	if err != nil {
		return err
	}
	j.probe = op
	return op.Open(ctx)
}

// openLoop prepares the block nested-loop join: materialize the right side,
// stream the left.
func (j *joinOp) openLoop(ctx *Context) error {
	l, err := buildFor(j.node.L, ctx)
	if err != nil {
		return err
	}
	j.left = l
	if j.node.On != nil && len(j.node.EquiLeft) == 0 {
		ev, err := expr.Compile(j.node.On)
		if err != nil {
			return err
		}
		j.onEval = ev
	}
	mat, err := materialize(partsOf(j.node.R, ctx), ctx)
	if err != nil {
		return err
	}
	j.rightMat = mat
	return j.left.Open(ctx)
}

func (j *joinOp) Close() error {
	if j.ht != nil {
		if j.probe != nil {
			return j.probe.Close()
		}
		return nil
	}
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}

func (j *joinOp) Next() (*types.Batch, error) {
	if j.parallel {
		return j.it.next(), nil
	}
	if j.ht != nil {
		return j.hashNext()
	}
	return j.loopNext()
}

// hashNext probes the hash table with the next probe-side batch.
func (j *joinOp) hashNext() (*types.Batch, error) {
	for {
		if len(j.pendingOut) > 0 {
			b := j.pendingOut[0]
			j.pendingOut = j.pendingOut[1:]
			return b, nil
		}
		if err := faultinject.Fire("exec.join.probe"); err != nil {
			return nil, err
		}
		pb, err := j.probe.Next()
		if err != nil || pb == nil {
			return nil, err
		}
		bs, err := j.pr.probeBatch(pb)
		if err != nil {
			return nil, err
		}
		j.pendingOut = append(j.pendingOut, bs...)
	}
}

// prober holds the per-worker probe state of a hash join: its own compiled
// residual evaluator (compiled closures are not shared across goroutines)
// over the operator-wide read-only hash table.
type prober struct {
	j        *joinOp
	residual expr.Evaluator
}

func (j *joinOp) newProber() (*prober, error) {
	pr := &prober{j: j}
	if j.node.Residual != nil {
		ev, err := expr.Compile(j.node.Residual)
		if err != nil {
			return nil, err
		}
		pr.residual = ev
	}
	return pr, nil
}

// probeSink is one worker of the morsel-parallel probe: it joins its part's
// batches against the shared table and retains the output, charged to the
// join.
type probeSink struct {
	pr  *prober
	out []*types.Batch
}

func (s *probeSink) consume(pb *types.Batch) error {
	bs, err := s.pr.probeBatch(pb)
	if err != nil {
		return err
	}
	for _, b := range bs {
		if err := s.pr.j.ctx.charge("join", batchBytes(b)); err != nil {
			return err
		}
	}
	s.out = append(s.out, bs...)
	return nil
}

// probeBatch joins one probe-side batch against the hash table, returning
// the matched rows followed by any left-join NULL-extended rows.
func (p *prober) probeBatch(pb *types.Batch) ([]*types.Batch, error) {
	j := p.j
	probeKeys := j.node.EquiRight
	buildKeys := j.node.EquiLeft
	if !j.buildIsLeft {
		probeKeys, buildKeys = j.node.EquiLeft, j.node.EquiRight
	}
	n := pb.Len()
	var buildRefs []rowRef
	var probeIdx []int
	var unmatched []int // left-join probe rows with no match
	for i := 0; i < n; i++ {
		h, ok := rowKeyHash(pb, probeKeys, i)
		matched := false
		if ok {
			for _, ref := range j.ht.lookup(h) {
				bb := j.ht.mat.Batches[ref.batch]
				if keysEqual(pb, probeKeys, i, bb, buildKeys, ref.row) {
					buildRefs = append(buildRefs, ref)
					probeIdx = append(probeIdx, i)
					matched = true
				}
			}
		}
		if !matched && j.node.Type == plan.LeftJoin {
			unmatched = append(unmatched, i)
		}
	}
	out, keep, err := p.assemble(pb, probeIdx, buildRefs)
	if err != nil {
		return nil, err
	}
	var res []*types.Batch
	if out != nil && out.Len() > 0 {
		res = append(res, out)
	}
	// For left joins, rows eliminated by the residual also count as
	// unmatched; track which probe rows survived.
	if j.node.Type == plan.LeftJoin {
		stillMatched := map[int]bool{}
		for oi, pi := range probeIdx {
			if keep == nil || keep[oi] {
				stillMatched[pi] = true
			}
		}
		for _, pi := range probeIdx {
			if !stillMatched[pi] {
				unmatched = append(unmatched, pi)
			}
		}
		// Deduplicate: a probe row with several candidates may appear in
		// unmatched repeatedly.
		seen := map[int]bool{}
		nullRows := types.NewBatch(j.schema)
		for _, pi := range unmatched {
			if seen[pi] || stillMatched[pi] {
				continue
			}
			seen[pi] = true
			row := make([]types.Value, 0, len(j.schema))
			row = append(row, pb.Row(pi)...)
			for _, c := range j.schema[len(pb.Cols):] {
				row = append(row, types.NewNull(c.Type))
			}
			nullRows.AppendRow(row)
		}
		if nullRows.Len() > 0 {
			res = append(res, nullRows)
		}
	}
	return res, nil
}

// assemble materializes matched pairs in output column order (left then
// right), applying the residual predicate. keep reports which output rows
// survived the residual (nil = all).
func (p *prober) assemble(pb *types.Batch, probeIdx []int, buildRefs []rowRef) (*types.Batch, []bool, error) {
	j := p.j
	if len(probeIdx) == 0 {
		return nil, nil, nil
	}
	nl := len(j.node.L.Schema())
	out := &types.Batch{Schema: j.schema, Cols: make([]*types.Column, len(j.schema))}
	for ci := range j.schema {
		fromLeft := ci < nl
		srcCol := ci
		if !fromLeft {
			srcCol = ci - nl
		}
		if fromLeft != j.buildIsLeft {
			// Probe-side column: a single gather.
			out.Cols[ci] = pb.Cols[srcCol].Gather(probeIdx)
			continue
		}
		// Build-side column: rows scatter across the materialized batches.
		col := types.NewColumn(j.schema[ci].Type, len(probeIdx))
		for k := range probeIdx {
			ref := buildRefs[k]
			col.Append(j.ht.mat.Batches[ref.batch].Cols[srcCol].Value(ref.row))
		}
		out.Cols[ci] = col
	}
	if p.residual == nil {
		return out, nil, nil
	}
	c, err := p.residual(out)
	if err != nil {
		return nil, nil, err
	}
	keep := make([]bool, out.Len())
	idx := make([]int, 0, out.Len())
	for i := range keep {
		keep[i] = !c.IsNull(i) && c.Bools[i]
		if keep[i] {
			idx = append(idx, i)
		}
	}
	if len(idx) == out.Len() {
		return out, keep, nil
	}
	return out.Gather(idx), keep, nil
}

// loopNext implements block nested-loop join (cross joins and non-equi
// conditions).
func (j *joinOp) loopNext() (*types.Batch, error) {
	for {
		if len(j.pendingOut) > 0 {
			b := j.pendingOut[0]
			j.pendingOut = j.pendingOut[1:]
			return b, nil
		}
		if j.done {
			return nil, nil
		}
		if j.nlLeft == nil {
			lb, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if lb == nil {
				j.done = true
				continue
			}
			j.nlLeft = lb
			j.nlMatched = make([]bool, lb.Len())
			j.nlRight = 0
		}
		if j.nlRight >= len(j.rightMat.Batches) {
			// Finished all right batches for this left batch.
			if j.node.Type == plan.LeftJoin {
				nullRows := types.NewBatch(j.schema)
				for i, m := range j.nlMatched {
					if m {
						continue
					}
					row := append([]types.Value{}, j.nlLeft.Row(i)...)
					for _, c := range j.schema[len(j.nlLeft.Cols):] {
						row = append(row, types.NewNull(c.Type))
					}
					nullRows.AppendRow(row)
				}
				if nullRows.Len() > 0 {
					j.pendingOut = append(j.pendingOut, nullRows)
				}
			}
			j.nlLeft = nil
			continue
		}
		rb := j.rightMat.Batches[j.nlRight]
		j.nlRight++
		out, err := j.crossBlock(j.nlLeft, rb)
		if err != nil {
			return nil, err
		}
		if out != nil && out.Len() > 0 {
			return out, nil
		}
	}
}

// crossBlock produces the filtered cross product of two batches and
// records which left rows matched. Output columns are built column-wise:
// left values repeat across the right block, right columns are copied
// wholesale per left row.
func (j *joinOp) crossBlock(lb, rb *types.Batch) (*types.Batch, error) {
	ln, rn := lb.Len(), rb.Len()
	nl := len(lb.Cols)
	out := &types.Batch{Schema: j.schema, Cols: make([]*types.Column, len(j.schema))}
	for ci := range j.schema {
		out.Cols[ci] = types.NewColumn(j.schema[ci].Type, ln*rn)
	}
	leftIdx := make([]int, 0, ln*rn)
	for li := 0; li < ln; li++ {
		for ci, c := range lb.Cols {
			out.Cols[ci].AppendRepeat(c.Value(li), rn)
		}
		for ci, c := range rb.Cols {
			out.Cols[nl+ci].AppendColumn(c)
		}
		for ri := 0; ri < rn; ri++ {
			leftIdx = append(leftIdx, li)
		}
	}
	if j.onEval == nil {
		for i := range j.nlMatched {
			j.nlMatched[i] = true
		}
		return out, nil
	}
	c, err := j.onEval(out)
	if err != nil {
		return nil, err
	}
	idx := make([]int, 0, out.Len())
	for i := 0; i < out.Len(); i++ {
		if !c.IsNull(i) && c.Bools[i] {
			idx = append(idx, i)
			j.nlMatched[leftIdx[i]] = true
		}
	}
	if len(idx) == 0 {
		return nil, nil
	}
	if len(idx) == out.Len() {
		return out, nil
	}
	return out.Gather(idx), nil
}
