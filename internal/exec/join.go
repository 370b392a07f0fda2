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
// expands each found key's chain into (probe row, build row) pairs, in probe
// order and, per probe row, build order. scratch is the prober's, for find.
func (jt *joinTable) match(keys []*types.Column, ids []int32, scratch *[]uint64) (probeIdx, buildIdx []int) {
	jt.keys.find(keys, ids, scratch)
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

// joinOp executes inner, left-outer, and cross joins as one stage of the
// pipeline its streaming side carries: Open fetches the blocking side from
// the context cache — built by whichever part of the pipeline asks first —
// and Next joins one streamed batch at a time against it. With equi keys
// that is a hash probe, otherwise a block nested loop. The join retains
// nothing of its output; whoever drives the pipeline decides whether it runs
// as morsels and how far.
type joinOp struct {
	node   *plan.Join
	schema types.Schema

	// Fixed when the operator is built.
	hash                 bool
	blocking, streaming  plan.Node
	buildKeys, probeKeys []int
	keyTypes             []types.Type
	key                  sharedKey
	scoped               bool           // the blocking side changes from round to round of an enclosing loop
	cond                 expr.Evaluator // hash: the residual; nested loop: the whole condition

	jt *joinTable
	in Operator // the streaming side

	pendingOut []*types.Batch

	// Hash-probe buffers.
	scratch []uint64
	ids     []int32

	// Nested-loop state.
	nlLeft    *types.Batch
	nlMatched []bool
	nlRight   int
	done      bool
	leftIdx   []int
	rightIdx  []int
}

func newJoinOp(n *plan.Join) (Operator, error) {
	j := &joinOp{node: n, schema: n.Schema(),
		hash: len(n.EquiLeft) > 0 && (n.Type == plan.InnerJoin || n.Type == plan.LeftJoin)}
	j.blocking, j.streaming = n.Sides()
	j.scoped = plan.ReadsWorkingTable(j.blocking)
	cond := n.On
	if j.hash {
		cond = n.Residual
		j.buildKeys, j.probeKeys = n.EquiRight, n.EquiLeft
		if n.BlockingLeft() {
			j.buildKeys, j.probeKeys = n.EquiLeft, n.EquiRight
		}
		// A key pair of two types (BIGINT = DOUBLE) is compared as DOUBLE.
		bs, ps := j.blocking.Schema(), j.streaming.Schema()
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
		if j.cond, err = expr.Compile(cond); err != nil {
			return nil, err
		}
	}
	return j, nil
}

func (j *joinOp) Schema() types.Schema { return j.schema }

func (j *joinOp) Open(ctx *Context) error {
	v, err := ctx.cached(j.key, j.scoped, func() (any, int64, error) { return j.build(ctx) })
	if err != nil {
		return err
	}
	j.jt = v.(*joinTable)
	if j.in, err = buildFor(j.streaming, ctx); err != nil {
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
	if j.in != nil {
		return j.in.Close()
	}
	return nil
}

func (j *joinOp) Next() (*types.Batch, error) {
	if j.hash {
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
		pb, err := j.in.Next()
		if err != nil || pb == nil {
			return nil, err
		}
		if j.pendingOut, err = j.probeBatch(pb); err != nil {
			return nil, err
		}
	}
}

// probeBatch joins one probe-side batch against the join table, returning
// the matched rows followed by any left-join NULL-extended rows.
func (j *joinOp) probeBatch(pb *types.Batch) ([]*types.Batch, error) {
	n := pb.Len()
	keys := pickCols(pb, j.probeKeys)
	j.ids = sized(j.ids, n)
	probeIdx, buildIdx := j.jt.match(keys, j.ids, &j.scratch)
	out, probeIdx, err := j.assemble(pb, probeIdx, buildIdx)
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
			if !m && (j.ids[i] >= 0) == hadCandidates {
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
func (j *joinOp) assemble(pb *types.Batch, probeIdx, buildIdx []int) (*types.Batch, []int, error) {
	left, right := pb.Cols, j.jt.rows.Gather(buildIdx).Cols
	if !isIdentity(probeIdx, pb.Len()) { // else every probe row found exactly one partner
		left = pb.Gather(probeIdx).Cols
	}
	if j.node.BlockingLeft() {
		left, right = right, left
	}
	out := &types.Batch{Schema: j.schema, Cols: append(append(make([]*types.Column, 0, len(j.schema)), left...), right...)}
	if j.cond == nil || len(probeIdx) == 0 {
		return out, probeIdx, nil
	}
	c, err := j.cond(out)
	if err != nil {
		return nil, nil, err
	}
	kept := selected(c, out.Len())
	for k, i := range kept {
		probeIdx[k] = probeIdx[i]
	}
	if len(kept) < out.Len() {
		out = out.Gather(kept)
	}
	return out, probeIdx[:len(kept)], nil
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
			j.pendingOut = j.pendingOut[1:]
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
			j.nlMatched = make([]bool, lb.Len())
			j.nlRight = 0
		}
		if j.nlRight >= len(j.jt.blocks) {
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
	out := &types.Batch{Schema: j.schema, Cols: append(lb.Gather(j.leftIdx).Cols, rb.Gather(j.rightIdx).Cols...)}
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
	idx := selected(c, out.Len())
	for _, i := range idx {
		j.nlMatched[j.leftIdx[i]] = true
	}
	if len(idx) == 0 {
		return nil, nil
	}
	if len(idx) == out.Len() {
		return out, nil
	}
	return out.Gather(idx), nil
}
