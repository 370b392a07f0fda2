package exec

import (
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// joinTable is the blocking side of a join, materialised once and only read
// afterwards, so every part of the pipeline that streams past it shares one.
// A nested-loop join walks it block by block. A hash join addresses it as one
// batch through the key table over its distinct keys and, per key, the chain
// of build rows that hold it in build-row order (head[id], then next[row]
// until -1). Rows with a NULL key are on no chain (SQL equi-join semantics).
type joinTable struct {
	blocks []*types.Batch

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
	jt.keys.findOrAdd(keys, ids)
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
// appends to probeIdx and buildIdx, the prober's buffers, the (probe row,
// build row) pair of each found key's chain, in probe order and, per probe
// row, build order. scratch is the prober's too, for find.
func (jt *joinTable) match(keys []*types.Column, ids []int32, scratch *[]uint64, probeIdx, buildIdx []int) ([]int, []int) {
	jt.keys.find(keys, ids, scratch)
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

// joinOp executes inner, left-outer, and cross joins as one stage of the
// pipeline its streaming side carries: Open fetches the blocking side from
// the context cache — built by whichever part of the pipeline asks first —
// and Next joins one streamed batch at a time against it. With equi keys
// that is a hash probe, otherwise a block nested loop. The join retains
// nothing of its output; whoever drives the pipeline decides whether it runs
// as morsels and how far. Joined rows are gathered into the operator's
// reusable output (out, and kept for what a condition leaves of it); only
// NULL-extended rows are fresh.
type joinOp struct {
	node   *plan.Join
	schema types.Schema

	// Fixed when the operator is built.
	hash                 bool
	blocking             plan.Node
	streaming            part // the streaming side over the join's own range
	buildKeys, probeKeys []int
	keyTypes             []types.Type
	key                  sharedKey
	scoped               bool           // the blocking side changes from round to round of an enclosing loop
	cond                 expr.Evaluator // hash: the residual; nested loop: the whole condition

	jt *joinTable
	in Operator // the streaming side

	pendingOut []*types.Batch

	// Reusable output and the condition's buffers; lone: a left join's
	// rows that found no partner.
	scratch   scratch
	out, kept outBatch
	keep      []int
	lone      []int

	// Hash-probe buffers.
	keys               []*types.Column
	hashes             []uint64
	ids                []int32
	probeIdx, buildIdx []int
	matched            []bool

	// Nested-loop state.
	nlLeft    *types.Batch
	nlMatched []bool
	nlRight   int
	done      bool
	leftIdx   []int
	rightIdx  []int
}

// newJoinOp builds part p of a join: its streaming side reads p's range,
// its blocking side is whole.
func newJoinOp(n *plan.Join, p part, ctx *Context) (Operator, error) {
	j := &joinOp{node: n, schema: n.Schema(),
		hash: len(n.EquiLeft) > 0 && (n.Type == plan.InnerJoin || n.Type == plan.LeftJoin)}
	blocking, streaming := n.Sides()
	j.blocking, j.streaming = blocking, p.of(streaming)
	j.scoped = plan.ReadsWorkingTable(j.blocking)
	cond := n.On
	if j.hash {
		cond = n.Residual
		j.buildKeys, j.probeKeys = n.EquiRight, n.EquiLeft
		if n.BlockingLeft() {
			j.buildKeys, j.probeKeys = n.EquiLeft, n.EquiRight
		}
		// A key pair of two types (BIGINT = DOUBLE) is compared as DOUBLE.
		bs, ps := blocking.Schema(), streaming.Schema()
		j.keyTypes = make([]types.Type, len(j.buildKeys))
		for i, c := range j.buildKeys {
			if j.keyTypes[i] = bs[c].Type; j.keyTypes[i] != ps[j.probeKeys[i]].Type {
				j.keyTypes[i] = types.Float64
			}
		}
	}
	j.key = sharedKey{node: j.blocking, keys: fmt.Sprint(j.buildKeys, j.keyTypes)}
	if cond != nil {
		var err error
		if j.cond, err = expr.CompileLent(cond, ctx.Args, &j.scratch.Scratch); err != nil {
			return nil, err
		}
	}
	j.out, j.kept = newOutBatch(&j.scratch.Scratch, j.schema), newOutBatch(&j.scratch.Scratch, j.schema)
	return j, nil
}

func (j *joinOp) Schema() types.Schema { return j.schema }

func (j *joinOp) Open(ctx *Context) error {
	j.scratch.ctx, j.scratch.label = ctx, "join"
	v, err := ctx.cached(j.key, j.scoped, func() (any, int64, error) { return j.build(ctx) })
	if err != nil {
		return err
	}
	j.jt = v.(*joinTable)
	if j.in, err = buildWith(j.streaming, ctx); err != nil {
		return err
	}
	return j.in.Open(ctx)
}

// build materialises the blocking side (morsel-parallel when its pipeline
// splits) and, for a hash join, indexes it.
func (j *joinOp) build(ctx *Context) (jt *joinTable, held int64, err error) {
	defer containPanic("join", &err)
	if j.hash {
		if err := faultinject.Fire("exec.join.build"); err != nil {
			return nil, 0, err
		}
	}
	mat, err := materialize(partsOf(j.blocking, ctx), ctx)
	if err != nil {
		return nil, 0, err
	}
	if !j.hash {
		return &joinTable{blocks: mat.Batches}, matBytes(mat), nil
	}
	if jt, err = buildJoinTable(mat, j.buildKeys, j.keyTypes, ctx); err != nil {
		return nil, 0, err
	}
	return jt, matBytes(mat) + jt.keys.charged, nil
}

func (j *joinOp) Close() error {
	j.scratch.release()
	if j.in != nil {
		return j.in.Close()
	}
	return nil
}

func (j *joinOp) Next() (b *types.Batch, err error) {
	if j.hash {
		b, err = j.hashNext()
	} else {
		b, err = j.loopNext()
	}
	if err == nil {
		err = j.scratch.book()
	}
	return b, err
}

// hashNext probes the hash table with the next probe-side batch.
func (j *joinOp) hashNext() (*types.Batch, error) {
	for {
		if len(j.pendingOut) > 0 {
			b := j.pendingOut[0]
			j.pendingOut = append(j.pendingOut[:0], j.pendingOut[1:]...)
			return b, nil
		}
		if err := faultinject.Fire("exec.join.probe"); err != nil {
			return nil, err
		}
		pb, err := j.in.Next()
		if err != nil || pb == nil {
			return nil, err
		}
		if err = j.probeBatch(pb); err != nil {
			return nil, err
		}
	}
}

// probeBatch joins one probe-side batch against the join table, queueing
// the matched rows followed by any left-join NULL-extended rows.
func (j *joinOp) probeBatch(pb *types.Batch) error {
	n := pb.Len()
	j.keys = j.keys[:0]
	for _, c := range j.probeKeys {
		j.keys = append(j.keys, pb.Cols[c])
	}
	j.ids = sized(j.ids, n)
	j.probeIdx, j.buildIdx = j.jt.match(j.keys, j.ids, &j.hashes, j.probeIdx[:0], j.buildIdx[:0])
	out, probeIdx, err := j.assemble(pb, j.probeIdx, j.buildIdx)
	if err != nil {
		return err
	}
	j.pendingOut = j.pendingOut[:0]
	if out.Len() > 0 {
		j.pendingOut = append(j.pendingOut, out)
	}
	if j.node.Type != plan.LeftJoin {
		return nil
	}
	// A probe row is matched when one of its pairs survived the residual.
	// The others are NULL-extended: first those whose key found no build row,
	// then those whose every candidate the residual rejected.
	j.matched = sized(j.matched, n)
	clear(j.matched)
	for _, pi := range probeIdx {
		j.matched[pi] = true
	}
	j.lone = j.lone[:0]
	for _, hadCandidates := range []bool{false, true} {
		for i, m := range j.matched {
			if !m && (j.ids[i] >= 0) == hadCandidates {
				j.lone = append(j.lone, i)
			}
		}
	}
	if len(j.lone) > 0 {
		j.pendingOut = append(j.pendingOut, nullExtend(pb, j.lone, j.schema))
	}
	return nil
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

// assemble gathers matched pairs into the output in column order (left
// then right), one gather per column, and applies the residual predicate; it
// returns the output and the probe rows of the pairs in it.
func (j *joinOp) assemble(pb *types.Batch, probeIdx, buildIdx []int) (*types.Batch, []int, error) {
	probeAt, buildAt := 0, len(pb.Cols)
	if j.node.BlockingLeft() {
		probeAt, buildAt = len(j.jt.rows.Cols), 0
	}
	if isIdentity(probeIdx, pb.Len()) { // every probe row found exactly one partner
		copy(j.out.cols(probeAt), pb.Cols)
	} else {
		j.out.gatherAt(probeAt, pb.Cols, probeIdx)
	}
	j.out.gatherAt(buildAt, j.jt.rows.Cols, buildIdx)
	out := &j.out.header
	if j.cond == nil || len(probeIdx) == 0 {
		return out, probeIdx, nil
	}
	c, err := j.cond(out)
	if err != nil {
		return nil, nil, err
	}
	j.keep = selected(c, out.Len(), j.keep)
	for k, i := range j.keep {
		probeIdx[k] = probeIdx[i]
	}
	if len(j.keep) < out.Len() {
		out = j.kept.gather(out, j.keep)
	}
	return out, probeIdx[:len(j.keep)], nil
}

// isIdentity reports whether idx is 0, 1, ..., n-1.
func isIdentity(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for i, x := range idx {
		if x != i {
			return false
		}
	}
	return true
}

// loopNext implements block nested-loop join (cross joins and non-equi
// conditions).
func (j *joinOp) loopNext() (*types.Batch, error) {
	for {
		if len(j.pendingOut) > 0 {
			b := j.pendingOut[0]
			j.pendingOut = append(j.pendingOut[:0], j.pendingOut[1:]...)
			return b, nil
		}
		if j.done {
			return nil, nil
		}
		if j.nlLeft == nil {
			lb, err := j.in.Next()
			if err != nil {
				return nil, err
			}
			if lb == nil {
				j.done = true
				continue
			}
			j.nlLeft = lb
			j.nlMatched = sized(j.nlMatched, lb.Len())
			clear(j.nlMatched)
			j.nlRight = 0
		}
		if j.nlRight >= len(j.jt.blocks) {
			// Finished all right batches for this left batch.
			j.lone = j.lone[:0]
			for i, m := range j.nlMatched {
				if !m && j.node.Type == plan.LeftJoin {
					j.lone = append(j.lone, i)
				}
			}
			if len(j.lone) > 0 {
				j.pendingOut = append(j.pendingOut, nullExtend(j.nlLeft, j.lone, j.schema))
			}
			j.nlLeft = nil
			continue
		}
		rb := j.jt.blocks[j.nlRight]
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

// crossBlock produces the filtered cross product of two batches, left-major,
// and records which left rows matched: two gathers, the left rows repeated
// across the right block and the right block tiled once per left row.
func (j *joinOp) crossBlock(lb, rb *types.Batch) (*types.Batch, error) {
	ln, rn := lb.Len(), rb.Len()
	j.leftIdx, j.rightIdx = sized(j.leftIdx, ln*rn), sized(j.rightIdx, ln*rn)
	for o := range j.leftIdx {
		j.leftIdx[o], j.rightIdx[o] = o/rn, o%rn
	}
	j.out.gatherAt(0, lb.Cols, j.leftIdx)
	j.out.gatherAt(len(lb.Cols), rb.Cols, j.rightIdx)
	out := &j.out.header
	if j.cond == nil {
		for i := range j.nlMatched {
			j.nlMatched[i] = true
		}
		return out, nil
	}
	c, err := j.cond(out)
	if err != nil {
		return nil, err
	}
	j.keep = selected(c, out.Len(), j.keep)
	for _, i := range j.keep {
		j.nlMatched[j.leftIdx[i]] = true
	}
	if len(j.keep) == 0 {
		return nil, nil
	}
	if len(j.keep) == out.Len() {
		return out, nil
	}
	return j.kept.gather(out, j.keep), nil
}
