package exec

import (
	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// joinTable is the build side of a hash join: the build rows as one batch,
// the key table over their distinct keys and, per key, the chain of build
// rows that hold it in build-row order (head[id], then next[row] until -1).
// Rows with a NULL key are on no chain (SQL equi-join semantics). Probing
// only reads it, so the probe workers share one.
type joinTable struct {
	rows       *types.Batch
	keys       *keyTable
	head, next []int32
}

// buildJoinTable flattens the materialized build side, resolves every row's
// key to an id and threads the chains; table and chains are charged to the
// join.
func buildJoinTable(mat *Materialized, keyCols []int, keyTypes []types.Type, ctx *Context) (*joinTable, error) {
	jt := &joinTable{rows: flatten(mat), keys: newKeyTable(ctx, "join", keyTypes, false),
		next: make([]int32, mat.NumRows)}
	keys := pickCols(jt.rows, keyCols)
	ids := make([]int32, mat.NumRows)
	jt.keys.findOrAdd(keys, hashKeys(keys, mat.NumRows, nil), ids)
	jt.head = make([]int32, jt.keys.len())
	for id := range jt.head {
		jt.head[id] = -1
	}
	// Back to front, so that pushing each row at its chain's head leaves the
	// chains in ascending row order.
	for r := len(ids) - 1; r >= 0; r-- {
		if id := ids[r]; id >= 0 {
			jt.next[r], jt.head[id] = jt.head[id], int32(r)
		}
	}
	return jt, jt.keys.book(int64(len(jt.head)+len(jt.next)) * 4)
}

// match resolves a probe batch's keys (ids[i] < 0: row i has no partner) and
// expands each found key's chain into (probe row, build row) pairs, in probe
// order and, per probe row, build order.
func (jt *joinTable) match(keys []*types.Column, hashes []uint64, ids []int32) (probeIdx, buildIdx []int) {
	jt.keys.find(keys, hashes, ids)
	probeIdx, buildIdx = make([]int, 0, len(ids)), make([]int, 0, len(ids))
	for i, id := range ids {
		if id < 0 {
			continue
		}
		for r := jt.head[id]; r >= 0; r = jt.next[r] {
			probeIdx, buildIdx = append(probeIdx, i), append(buildIdx, int(r))
		}
	}
	return probeIdx, buildIdx
}

// flatten concatenates a relation into one batch, so that rows are
// addressed by one index and gathered a column at a time.
func flatten(m *Materialized) *types.Batch {
	out := &types.Batch{Schema: m.Schema, Cols: make([]*types.Column, len(m.Schema))}
	for c, info := range m.Schema {
		out.Cols[c] = types.NewColumn(info.Type, m.NumRows)
		for _, b := range m.Batches {
			out.Cols[c].AppendColumn(b.Cols[c])
		}
	}
	return out
}

// pickCols returns the columns of b at the given positions.
func pickCols(b *types.Batch, at []int) []*types.Column {
	out := make([]*types.Column, len(at))
	for i, c := range at {
		out[i] = b.Cols[c]
	}
	return out
}

// joinOp executes inner, left-outer, and cross joins. With equi keys it is
// a hash join — the build side drained morsel-parallel into one join table
// and, when the probe side is a splittable scan pipeline, a morsel-parallel
// probe; otherwise a block nested-loop join.
type joinOp struct {
	node   *plan.Join
	schema types.Schema

	ctx *Context

	// Hash-join state.
	jt          *joinTable
	buildIsLeft bool
	probeKeys   []int
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
// (morsel-parallel when its pipeline splits) and build the join table.
// Probe: when the probe side splits, each worker streams its morsels
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
	j.probeKeys = j.node.EquiRight
	if !j.buildIsLeft {
		buildPlan, buildKeys = j.node.R, j.node.EquiRight
		probePlan, j.probeKeys = j.node.L, j.node.EquiLeft
	}
	// A key pair of two types (BIGINT = DOUBLE) is compared as DOUBLE.
	bs, ps := buildPlan.Schema(), probePlan.Schema()
	keyTypes := make([]types.Type, len(buildKeys))
	for i, c := range buildKeys {
		if keyTypes[i] = bs[c].Type; keyTypes[i] != ps[j.probeKeys[i]].Type {
			keyTypes[i] = types.Float64
		}
	}
	if err := faultinject.Fire("exec.join.build"); err != nil {
		return err
	}
	mat, err := materialize(partsOf(buildPlan, ctx), ctx)
	if err != nil {
		return err
	}
	j.jt, err = buildJoinTable(mat, buildKeys, keyTypes, ctx)
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
	if j.jt != nil {
		j.jt.keys.release()
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
	if j.jt != nil {
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
// and lookup buffers, over the operator-wide read-only join table.
type prober struct {
	j        *joinOp
	residual expr.Evaluator
	hashes   []uint64
	ids      []int32
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

// probeBatch joins one probe-side batch against the join table, returning
// the matched rows followed by any left-join NULL-extended rows.
func (p *prober) probeBatch(pb *types.Batch) ([]*types.Batch, error) {
	j := p.j
	n := pb.Len()
	keys := pickCols(pb, j.probeKeys)
	p.hashes, p.ids = hashKeys(keys, n, p.hashes), sized(p.ids, n)
	probeIdx, buildIdx := j.jt.match(keys, p.hashes, p.ids)
	out, probeIdx, err := p.assemble(pb, probeIdx, buildIdx)
	if err != nil {
		return nil, err
	}
	var res []*types.Batch
	if out.Len() > 0 {
		res = append(res, out)
	}
	if j.node.Type != plan.LeftJoin {
		return res, nil
	}
	// A probe row is matched when one of its pairs survived the residual.
	// The others are NULL-extended: first those whose key found no build row,
	// then those whose every candidate the residual rejected.
	matched := make([]bool, n)
	for _, pi := range probeIdx {
		matched[pi] = true
	}
	var lone []int
	for _, hadCandidates := range []bool{false, true} {
		for i, m := range matched {
			if !m && (p.ids[i] >= 0) == hadCandidates {
				lone = append(lone, i)
			}
		}
	}
	if len(lone) > 0 {
		res = append(res, nullExtend(pb, lone, j.schema))
	}
	return res, nil
}

// nullExtend returns the given rows of a left-side batch under the join's
// schema, every right-side column NULL.
func nullExtend(lb *types.Batch, rows []int, schema types.Schema) *types.Batch {
	cols := lb.Gather(rows).Cols
	for _, c := range schema[len(cols):] {
		cols = append(cols, types.ConstColumn(types.NewNull(c.Type), len(rows)))
	}
	return &types.Batch{Schema: schema, Cols: cols}
}

// assemble materializes matched pairs in output column order (left then
// right), one gather per column, and applies the residual predicate; it
// returns the output and the probe rows of the pairs in it.
func (p *prober) assemble(pb *types.Batch, probeIdx, buildIdx []int) (*types.Batch, []int, error) {
	j := p.j
	cols, build := pb.Gather(probeIdx).Cols, j.jt.rows.Gather(buildIdx).Cols
	if j.buildIsLeft {
		cols, build = build, cols
	}
	out := &types.Batch{Schema: j.schema, Cols: append(cols, build...)}
	if p.residual == nil || len(probeIdx) == 0 {
		return out, probeIdx, nil
	}
	c, err := p.residual(out)
	if err != nil {
		return nil, nil, err
	}
	kept := make([]int, 0, out.Len())
	for i, pi := range probeIdx {
		if !c.IsNull(i) && c.Bools[i] {
			probeIdx[len(kept)] = pi
			kept = append(kept, i)
		}
	}
	if len(kept) < out.Len() {
		out = out.Gather(kept)
	}
	return out, probeIdx[:len(kept)], nil
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
			var lone []int
			for i, m := range j.nlMatched {
				if !m && j.node.Type == plan.LeftJoin {
					lone = append(lone, i)
				}
			}
			if len(lone) > 0 {
				j.pendingOut = append(j.pendingOut, nullExtend(j.nlLeft, lone, j.schema))
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
