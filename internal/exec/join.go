package exec

import (
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/morsel"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// joinTable is the blocking side of a join, materialised once and only read
// afterwards, so every part of the pipeline that streams past it shares one.
// It is addressed as one batch through the key table over its distinct keys
// and, per key, the chain of build rows that hold it in build-row order
// (head[id], then next[row] until -1). Rows with a NULL key are on no chain
// (SQL equi-join semantics). A join without keys has one key, the empty
// tuple, so every build row is on one chain, in build order: a nested loop
// is a hash join on zero keys.
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

// maxJoinPairs bounds the candidate pairs a join assembles into one output
// batch. It splits no join of the paper's workloads: the k-Means cross join
// pairs a 1,024-point batch with k centres.
const maxJoinPairs = 64 * types.BatchSize

// joinCursor is a place in the pairs of one probe batch: probe row row is
// still to be paired with build row link and the rest of its chain (link
// -1: with none). It starts before the first row, {-1, -1}.
type joinCursor struct {
	row  int
	link int32
}

// match resolves a probe batch's keys (ids[i] < 0: row i has no partner)
// and appends every pair of the batch to probeIdx and buildIdx. scratch is
// the prober's, for find.
func (jt *joinTable) match(keys []*types.Column, ids []int32, scratch *[]uint64, probeIdx, buildIdx []int) ([]int, []int) {
	jt.keys.find(keys, ids, scratch)
	for at := (joinCursor{row: -1, link: -1}); at.row < len(ids); {
		probeIdx, buildIdx = jt.pairs(ids, &at, probeIdx, buildIdx)
	}
	return probeIdx, buildIdx
}

// pairs appends to probeIdx and buildIdx, the prober's buffers, the next at
// most maxJoinPairs (probe row, build row) pairs of a probe batch whose rows
// resolved to ids, from the cursor on: in probe order and, per probe row,
// build order.
func (jt *joinTable) pairs(ids []int32, at *joinCursor, probeIdx, buildIdx []int) ([]int, []int) {
	for end := len(probeIdx) + maxJoinPairs; len(probeIdx) < end; {
		for at.link < 0 {
			if at.row++; at.row >= len(ids) {
				return probeIdx, buildIdx
			}
			if id := ids[at.row]; id >= 0 {
				at.link = jt.head[id]
			}
		}
		probeIdx, buildIdx = append(probeIdx, at.row), append(buildIdx, int(at.link))
		at.link = jt.next[at.link]
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
// and Next joins one streamed batch at a time against it, at most
// maxJoinPairs candidate pairs per output batch. The join retains nothing of
// its output; whoever drives the pipeline decides whether it runs as morsels
// and how far. Joined rows are gathered into the operator's reusable output
// (out, and kept for what the residual leaves of it); only NULL-extended
// rows are fresh.
type joinOp struct {
	node   *plan.Join
	schema types.Schema

	// Fixed when the operator is built.
	blocking             plan.Node
	streaming            part // the streaming side over the join's own range
	buildKeys, probeKeys []int
	keyTypes             []types.Type
	key                  sharedKey
	scoped               bool // the blocking side changes from round to round of an enclosing loop
	residual             expr.Selector

	jt *joinTable
	in Operator // the streaming side

	// The probe batch being joined (nil between batches), its rows' key ids
	// and the cursor's place in its pairs; matched: a left join's probe rows
	// that kept a pair.
	pb      *types.Batch
	ids     []int32
	at      joinCursor
	matched []bool

	// Reusable output and the residual's buffers; lone: a left join's rows
	// that found no partner.
	scratch   scratch
	out, kept outBatch
	keep      []int
	lone      []int

	// Probe buffers.
	keys               []*types.Column
	hashes             []uint64
	probeIdx, buildIdx []int
}

// newJoinOp builds part p of a join: its streaming side reads p's range,
// its blocking side is whole.
func newJoinOp(n *plan.Join, p part, ctx *Context) (Operator, error) {
	j := &joinOp{node: n, schema: n.Schema()}
	blocking, streaming := n.Sides()
	j.blocking, j.streaming = blocking, p.of(streaming)
	j.scoped = plan.ReadsWorkingTable(j.blocking)
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
	j.key = sharedKey{node: j.blocking, keys: fmt.Sprint(j.buildKeys, j.keyTypes)}
	if n.Residual != nil {
		var err error
		if j.residual, err = expr.CompileSelect(n.Residual, ctx.Args, &j.scratch.Scratch); err != nil {
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
// splits) and indexes it.
func (j *joinOp) build(ctx *Context) (jt *joinTable, held int64, err error) {
	defer morsel.Contain("join", &err)
	if err := faultinject.Fire("exec.join.build"); err != nil {
		return nil, 0, err
	}
	mat, err := materialize(partsOf(j.blocking, ctx), ctx)
	if err != nil {
		return nil, 0, err
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
	if b, err = j.next(); err == nil {
		err = j.scratch.book()
	}
	return b, err
}

// next returns what survives the residual of the probe batch's next
// maxJoinPairs pairs; after its last, a left join's NULL-extended rows.
func (j *joinOp) next() (*types.Batch, error) {
	for {
		if j.pb == nil {
			if err := faultinject.Fire("exec.join.probe"); err != nil {
				return nil, err
			}
			pb, err := j.in.Next()
			if err != nil || pb == nil {
				return nil, err
			}
			j.probe(pb)
		}
		if j.at.row < len(j.ids) {
			j.probeIdx, j.buildIdx = j.jt.pairs(j.ids, &j.at, j.probeIdx[:0], j.buildIdx[:0])
			out, err := j.assemble()
			if err != nil || out.Len() > 0 {
				return out, err
			}
			continue
		}
		pb := j.pb
		j.pb = nil
		if lone := j.unmatched(); len(lone) > 0 {
			return nullExtend(pb, lone, j.schema), nil
		}
	}
}

// probe starts joining a probe batch: it resolves the rows' keys and puts
// the cursor before its first pair.
func (j *joinOp) probe(pb *types.Batch) {
	j.pb, j.at = pb, joinCursor{row: -1, link: -1}
	j.keys = j.keys[:0]
	for _, c := range j.probeKeys {
		j.keys = append(j.keys, pb.Cols[c])
	}
	j.ids = sized(j.ids, pb.Len())
	j.jt.keys.find(j.keys, j.ids, &j.hashes)
	if j.node.Type == plan.LeftJoin {
		j.matched = sized(j.matched, pb.Len())
		clear(j.matched)
	}
}

// unmatched returns a left join's probe rows that kept no pair: first those
// whose key found no build row, then those whose every candidate the
// residual rejected.
func (j *joinOp) unmatched() []int {
	j.lone = j.lone[:0]
	if j.node.Type != plan.LeftJoin {
		return j.lone
	}
	for _, hadCandidates := range []bool{false, true} {
		for i, m := range j.matched {
			if !m && (j.ids[i] >= 0) == hadCandidates {
				j.lone = append(j.lone, i)
			}
		}
	}
	return j.lone
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

// assemble gathers the cursor's pairs into the output in column order (left
// then right), one gather per column, and applies the residual, marking the
// probe rows of the pairs it keeps as matched.
func (j *joinOp) assemble() (*types.Batch, error) {
	pb, probeIdx := j.pb, j.probeIdx
	probeAt, buildAt := 0, len(pb.Cols)
	if j.node.BlockingLeft() {
		probeAt, buildAt = len(j.jt.rows.Cols), 0
	}
	if isIdentity(probeIdx, pb.Len()) { // every probe row found exactly one partner
		copy(j.out.cols(probeAt), pb.Cols)
	} else {
		j.out.gatherAt(probeAt, pb.Cols, probeIdx)
	}
	j.out.gatherAt(buildAt, j.jt.rows.Cols, j.buildIdx)
	out := &j.out.header
	if j.residual != nil && len(probeIdx) > 0 {
		var err error
		if j.keep, err = j.residual(out, nil, j.keep); err != nil {
			return nil, err
		}
		for k, i := range j.keep {
			probeIdx[k] = probeIdx[i]
		}
		probeIdx = probeIdx[:len(j.keep)]
		if len(j.keep) < out.Len() {
			out = j.kept.gather(out, j.keep)
		}
	}
	if j.matched != nil {
		for _, pi := range probeIdx {
			j.matched[pi] = true
		}
	}
	return out, nil
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
