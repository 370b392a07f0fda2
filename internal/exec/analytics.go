package exec

import (
	"fmt"
	"math"
	"slices"

	"lambdadb/internal/analytics"
	"lambdadb/internal/expr"
	"lambdadb/internal/graph"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// nullColumn returns the first of b's first d columns holding a NULL, or -1;
// only columns with a null bitmap are scanned.
func nullColumn(b *types.Batch, d int) int {
	for j, col := range b.Cols[:d] {
		if col.Nulls != nil && slices.Contains(col.Nulls[:b.Len()], true) {
			return j
		}
	}
	return -1
}

// rejectNulls rejects NULLs in the first d columns of a numeric input.
func rejectNulls(b *types.Batch, d int) error {
	if j := nullColumn(b, d); j >= 0 {
		return fmt.Errorf("NULL in analytical input column %q", b.Schema[j].Name)
	}
	return nil
}

// fillRows writes the first n rows of cols, BIGINT or DOUBLE, as float64s
// into the row-major dst of d values a row, column j at offset j: one typed
// strided copy per column.
func fillRows(dst []float64, d int, cols []*types.Column, n int) {
	for j, col := range cols {
		out := dst[j:]
		if col.T == types.Int64 {
			for i, x := range col.Ints[:n] {
				out[i*d] = float64(x)
			}
		} else {
			for i, x := range col.Floats[:n] {
				out[i*d] = x
			}
		}
	}
}

// inputSink retains the batches of one part of an analytical operator's
// input, each checked by prepare — which may also extend it, as PageRank
// appends the edge weights — and charged to the operator named by label as
// the rowBytes a row it will take once copied into the operator's arrays.
type inputSink struct {
	ctx      *Context
	label    string
	rowBytes int64
	prepare  func(b *types.Batch) (*types.Batch, error)
	scratch  scratch // prepare's evaluators
	batches  []*types.Batch
	rows     int
	start    int // the position of the part's first row in the whole input
}

func (s *inputSink) consume(b *types.Batch) error {
	b, err := s.prepare(b)
	if err == nil {
		err = s.scratch.book()
	}
	if err != nil {
		return err
	}
	if err := s.ctx.charge(s.label, s.rowBytes*int64(b.Len())); err != nil {
		return err
	}
	s.batches = append(s.batches, types.Retain(b))
	s.rows += b.Len()
	return nil
}

// preparer makes one part's prepare step; an evaluator it compiles draws
// its buffers from the part's scratch, since parts run concurrently.
type preparer func(s *scratch) (func(*types.Batch) (*types.Batch, error), error)

// input is an analytical operator's input, loaded: the checked batches of
// each part, in part order, and how many rows they hold.
type input struct {
	parts []*inputSink
	rows  int
}

// loadInput is the one loader of the analytical operators: it drives p
// into one inputSink per part.
func loadInput(p plan.Node, ctx *Context, label string, rowBytes int64, prepare preparer) (*input, error) {
	sinks, err := drive(ctx, partsOf(p, ctx), "", func(Operator) (s *inputSink, err error) {
		s = &inputSink{ctx: ctx, label: label, rowBytes: rowBytes, scratch: scratch{ctx: ctx, label: label}}
		s.prepare, err = prepare(&s.scratch)
		return s, err
	})
	for _, s := range sinks {
		if s != nil {
			s.scratch.release()
		}
	}
	if err != nil {
		return nil, err
	}
	in := &input{parts: sinks}
	for _, s := range sinks {
		s.start, in.rows = in.rows, in.rows+s.rows
	}
	return in, nil
}

// copyInto hands every batch, with the position of its first row in the
// whole input, to copyAt, which copies it into arrays the caller sized to
// in.rows; the parts copy in parallel.
func (in *input) copyInto(ctx *Context, copyAt func(b *types.Batch, row int)) error {
	return runParts(ctx, len(in.parts), func(i int) error {
		row := in.parts[i].start
		for _, b := range in.parts[i].batches {
			copyAt(b, row)
			row += b.Len()
		}
		return nil
	})
}

// floatMatrix is a materialized numeric input: n rows of d float64 columns,
// row-major, and for a labelled input its last column, one BIGINT label a
// row, kept exact.
type floatMatrix struct {
	data   []float64
	labels []int64
	n, d   int
}

// bytes is what a loaded matrix holds of the query budget; the operator that
// loaded it releases that when its kernel returns.
func (m *floatMatrix) bytes() int64 { return 8 * int64(len(m.data)+len(m.labels)) }

// loadFloats materializes a plan into a row-major float matrix, allocated
// once at its final size, on behalf of the operator named by label. With
// labelled, the plan's last column is the BIGINT label and stays out of the
// matrix.
func loadFloats(p plan.Node, ctx *Context, label string, labelled bool) (*floatMatrix, error) {
	width := len(p.Schema())
	for _, c := range p.Schema() {
		if !c.Type.IsNumeric() {
			return nil, fmt.Errorf("analytical input column %q is %s, need a numeric type", c.Name, c.Type)
		}
	}
	in, err := loadInput(p, ctx, label, 8*int64(width), func(*scratch) (func(*types.Batch) (*types.Batch, error), error) {
		return func(b *types.Batch) (*types.Batch, error) { return b, rejectNulls(b, width) }, nil
	})
	if err != nil {
		return nil, err
	}
	m := &floatMatrix{n: in.rows, d: width}
	if labelled {
		m.d--
		m.labels = make([]int64, m.n)
	}
	m.data = make([]float64, m.n*m.d)
	err = in.copyInto(ctx, func(b *types.Batch, row int) {
		rows := b.Len()
		fillRows(m.data[row*m.d:], m.d, b.Cols[:m.d], rows)
		if labelled {
			copy(m.labels[row:], b.Cols[m.d].Ints[:rows])
		}
	})
	return m, err
}

// distance is a bound distance λ(a, b) over d DOUBLE fields, prepared for
// the k-Means kernels on one goroutine, with buffers from that goroutine's
// scratch. For each set of centres, centre c's fields replace b's as
// constants, and the folded body compiles with the ordinary expression
// compiler: k compiles per round, none per row or block. A centre's
// evaluator has run, and its result is copied out, before the next centre's
// starts, so all k draw the same buffers from scratch — as do the next
// round's — and a block of rows is transposed into the same d columns: a
// round allocates no column data once the first has run. A NULL or NaN
// distance is an error naming the λ.
type distance struct {
	l       *expr.Lambda
	d       int
	what    string
	scratch *scratch
	evs     []expr.Evaluator
	buf     []float64
	cols    []types.Column
	block   types.Batch
}

func newDistance(l *expr.Lambda, d int, what string, s *scratch) *distance {
	m := &distance{l: l, d: d, what: what, scratch: s,
		cols: make([]types.Column, d), block: types.Batch{Cols: make([]*types.Column, d)}}
	for j := range m.cols {
		m.cols[j].T, m.block.Cols[j] = types.Float64, &m.cols[j]
	}
	return m
}

// prepare compiles the metric for one set of centres, replacing the
// previous set's.
func (m *distance) prepare(centers []float64) (analytics.Metric, error) {
	d := m.d
	m.evs = m.evs[:0]
	for c := range len(centers) / d {
		m.scratch.Rewind()
		centre := centers[c*d : c*d+d]
		body := expr.Rewrite(m.l.Body, func(e expr.Expr) expr.Expr {
			if ref, ok := e.(*expr.ColRef); ok && ref.Index >= d {
				return &expr.Const{Val: types.NewFloat(centre[ref.Index-d])}
			}
			return e
		})
		ev, err := expr.CompileLent(plan.Fold(body), &m.scratch.Scratch)
		if err != nil {
			return nil, fmt.Errorf("%s: distance %s: %w", m.what, m.l, err)
		}
		m.evs = append(m.evs, ev)
	}
	return m.metric, nil
}

func (m *distance) metric(rows []float64, dist [][]float64) error {
	b := m.columnsOf(rows)
	for c, ev := range m.evs {
		col, err := ev(b)
		if err == nil {
			err = checkLambdaResult(col, func(x float64) bool { return !math.IsNaN(x) }, "distances must be numbers")
		}
		if err != nil {
			return fmt.Errorf("%s: distance %s: %w", m.what, m.l, err)
		}
		copy(dist[c], col.Floats)
	}
	return m.scratch.book()
}

// columnsOf transposes a block of row-major rows of d floats into the
// distance's batch of d DOUBLE columns.
func (m *distance) columnsOf(rows []float64) *types.Batch {
	d := m.d
	n := len(rows) / d
	m.buf = sized(m.buf, len(rows))
	for j := range m.cols {
		col := m.buf[j*n : (j+1)*n : (j+1)*n]
		for i := range col {
			col[i] = rows[i*d+j]
		}
		m.cols[j].Floats = col
	}
	return &m.block
}

// distanceMetric is the k-Means kernel's Distance for a bound λ: one
// distance per worker, kept across rounds, so that no two goroutines share
// an evaluator. A nil λ yields the kernels' default, squared Euclidean
// distance, as a nil metric. The returned release returns the workers'
// buffers to the budget.
func distanceMetric(l *expr.Lambda, d int, ctx *Context) (dist func(worker int, centers []float64) (analytics.Metric, error), release func()) {
	var workers []*distance
	dist = func(worker int, centers []float64) (analytics.Metric, error) {
		if l == nil {
			return nil, nil
		}
		for len(workers) <= worker {
			workers = append(workers, newDistance(l, d, "kmeans", &scratch{ctx: ctx, label: "kmeans"}))
		}
		return workers[worker].prepare(centers)
	}
	return dist, func() {
		for _, w := range workers {
			w.scratch.release()
		}
	}
}

// checkLambdaResult fails the first row of a λ's DOUBLE result that is NULL
// or that valid rejects; rule says what the operator needs instead.
func checkLambdaResult(c *types.Column, valid func(float64) bool, rule string) error {
	for i, x := range c.Floats {
		if c.IsNull(i) || !valid(x) {
			return fmt.Errorf("produced %s; %s", c.Value(i), rule)
		}
	}
	return nil
}

// newKMeansOp is the physical k-Means operator (paper Section 6.1).
func newKMeansOp(n *plan.KMeans) *blockingOp {
	schema := n.Schema()
	return &blockingOp{label: "kmeans", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		dist, release := distanceMetric(n.Lambda, len(n.OutNames), ctx)
		defer release()
		data, err := loadFloats(n.Data, ctx, "kmeans", false)
		if err != nil {
			return nil, fmt.Errorf("kmeans data: %w", err)
		}
		defer ctx.release(data.bytes())
		centers, err := loadFloats(n.Centers, ctx, "kmeans", false)
		if err != nil {
			return nil, fmt.Errorf("kmeans centers: %w", err)
		}
		defer ctx.release(centers.bytes())
		if centers.n == 0 {
			return nil, fmt.Errorf("kmeans: no initial centers")
		}
		if data.n == 0 {
			return nil, fmt.Errorf("kmeans: empty data input")
		}
		res, err := analytics.KMeans(data.data, data.n, data.d, centers.data, centers.n, analytics.KMeansOptions{
			MaxIter: n.MaxIter, Workers: ctx.Workers, Distance: dist,
			OnIteration: ctx.kernelRound(n, func(changed float64) int64 { return int64(changed) }),
		})
		if err != nil {
			return nil, err
		}
		out := &Materialized{Schema: schema}
		for c := 0; c < centers.n; c++ {
			row := make([]types.Value, 0, data.d+1)
			row = append(row, types.NewInt(int64(c)))
			for j := 0; j < data.d; j++ {
				row = append(row, types.NewFloat(res.Centers[c*data.d+j]))
			}
			out.AppendRow(row)
		}
		return out, nil
	}}
}

// applySink is model application: every input batch, read as rows of d
// floats, gets the model's labels appended as a column; the labelled batch
// is retained. The output is charged to the operator named by label.
type applySink struct {
	ctx     *Context
	label   string
	schema  types.Schema
	d       int
	predict func(rows []float64, labels []int64) error
	scratch scratch // predict's evaluators
	rows    []float64
	out     []*types.Batch
}

func (s *applySink) consume(b *types.Batch) error {
	if err := rejectNulls(b, s.d); err != nil {
		return err
	}
	n := b.Len()
	if cap(s.rows) < n*s.d {
		s.rows = make([]float64, n*s.d)
	}
	s.rows = s.rows[:n*s.d]
	fillRows(s.rows, s.d, b.Cols[:s.d], n)
	labels := &types.Column{T: types.Int64, Ints: make([]int64, n)}
	if err := s.predict(s.rows, labels.Ints); err != nil {
		return err
	}
	if err := s.scratch.book(); err != nil {
		return err
	}
	nb := types.Retain(&types.Batch{Schema: s.schema, Cols: append(append([]*types.Column{}, b.Cols...), labels)})
	s.out = append(s.out, nb)
	return s.ctx.charge(s.label, batchBytes(nb))
}

// applyModel drives data through one applySink per part and concatenates
// the labelled batches in part order. newPredict makes a part's predict,
// which labels one batch's rows on the part's goroutine with buffers from
// the part's scratch; it is called from several goroutines at once.
func applyModel(data plan.Node, ctx *Context, label string, schema types.Schema, d int,
	newPredict func(s *scratch) (func(rows []float64, labels []int64) error, error)) (*Materialized, error) {
	sinks, err := drive(ctx, partsOf(data, ctx), "", func(Operator) (s *applySink, err error) {
		s = &applySink{ctx: ctx, label: label, schema: schema, d: d, scratch: scratch{ctx: ctx, label: label}}
		s.predict, err = newPredict(&s.scratch)
		return s, err
	})
	for _, s := range sinks {
		if s != nil {
			s.scratch.release()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s data: %w", label, err)
	}
	out := &Materialized{Schema: schema}
	for _, s := range sinks {
		for _, b := range s.out {
			out.Append(b)
		}
	}
	return out, nil
}

// newKMeansAssignOp applies centers to data rows, appending the nearest
// cluster id to every tuple (model application).
func newKMeansAssignOp(n *plan.KMeansAssign) *blockingOp {
	d := len(n.Data.Schema())
	schema := n.Schema()
	return &blockingOp{label: "kmeans_assign", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		centers, err := loadFloats(n.Centers, ctx, "kmeans_assign", false)
		if err != nil {
			return nil, fmt.Errorf("kmeans_assign centers: %w", err)
		}
		defer ctx.release(centers.bytes())
		if centers.n == 0 {
			return nil, fmt.Errorf("kmeans_assign: no centers")
		}
		return applyModel(n.Data, ctx, "kmeans_assign", schema, d, func(s *scratch) (func([]float64, []int64) error, error) {
			var metric analytics.Metric
			if n.Lambda != nil {
				var err error
				if metric, err = newDistance(n.Lambda, d, "kmeans_assign", s).prepare(centers.data); err != nil {
					return nil, err
				}
			}
			return func(rows []float64, labels []int64) error {
				ids, err := analytics.Assign(rows, len(labels), d, centers.data, centers.n, metric)
				for i, c := range ids {
					labels[i] = int64(c)
				}
				return err
			}, nil
		})
	}}
}

// newPageRankOp is the physical PageRank operator (paper Section 6.3): it
// builds a temporary CSR index with dense re-labeled vertex ids, runs the
// ranking iterations, and maps ids back on output. An edge-weight lambda
// (Section 7), compiled once like any other expression over the edge
// batches, makes the CSR weighted.
func newPageRankOp(n *plan.PageRank) (*blockingOp, error) {
	if n.Lambda != nil {
		if _, err := expr.Compile(n.Lambda.Body); err != nil {
			return nil, fmt.Errorf("pagerank: edge weight %s: %w", n.Lambda, err)
		}
	}
	schema := n.Schema()
	return &blockingOp{label: "pagerank", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		e, err := loadEdges(n, ctx)
		if err != nil {
			return nil, fmt.Errorf("pagerank edges: %w", err)
		}
		// BuildWeighted holds the edges and their relabeled endpoints (8 B
		// an edge) until the graph is built; both go once it returns. The
		// graph and the transpose the kernel pulls over are held until the
		// operator ends.
		relabel := 8 * int64(len(e.src))
		if err := ctx.charge("pagerank", relabel); err != nil {
			return nil, err
		}
		g, err := graph.BuildWeighted(e.src, e.dst, e.weights)
		if err != nil {
			return nil, err
		}
		held := 2 * csrBytes(g)
		if err := ctx.charge("pagerank", held); err != nil {
			return nil, err
		}
		ctx.release(e.bytes() + relabel)
		defer ctx.release(held)
		nRanks := int64(g.N)
		res, err := analytics.PageRank(g, analytics.PageRankOptions{
			Damping: n.Damping, Epsilon: n.Epsilon, MaxIter: n.MaxIter, Workers: ctx.Workers,
			OnIteration: ctx.kernelRound(n, func(float64) int64 { return nRanks }),
		})
		if err != nil {
			return nil, err
		}
		// Reverse mapping: dense internal id v is the original id OrigIDs[v].
		out := &Materialized{Schema: schema}
		out.appendChunked(&types.Batch{Schema: schema, Cols: []*types.Column{
			{T: types.Int64, Ints: g.OrigIDs}, {T: types.Float64, Floats: res.Ranks}}})
		return out, nil
	}}, nil
}

// csrBytes is the resident size of a CSR's arrays.
func csrBytes(g *graph.CSR) int64 {
	return 8*int64(len(g.Offsets)+len(g.Weights)+len(g.OrigIDs)) + 4*int64(len(g.Targets))
}

// edges is a loaded edge input: src/dst vertex ids and, with a weight λ,
// one weight per edge.
type edges struct {
	src, dst []int64
	weights  []float64
}

// bytes is what loaded edges hold of the query budget.
func (e *edges) bytes() int64 { return 8 * int64(len(e.src)+len(e.dst)+len(e.weights)) }

// loadEdges materializes a PageRank edge input into arrays allocated once at
// their final size, charged to the pagerank operator. With a weight λ, its
// body, compiled once per part, evaluates each edge batch into a weight
// column appended to the batch.
func loadEdges(n *plan.PageRank, ctx *Context) (*edges, error) {
	weighted := n.Lambda != nil
	rowBytes := int64(16)
	if weighted {
		rowBytes += 8
	}
	in, err := loadInput(n.Edges, ctx, "pagerank", rowBytes, func(s *scratch) (func(*types.Batch) (*types.Batch, error), error) {
		var weight expr.Evaluator
		if weighted {
			var err error
			if weight, err = expr.CompileScratch(n.Lambda.Body, &s.Scratch); err != nil {
				return nil, err
			}
		}
		return func(b *types.Batch) (*types.Batch, error) {
			if nullColumn(b, 2) >= 0 {
				return nil, fmt.Errorf("NULL vertex id in edge input")
			}
			if weight == nil {
				return b, nil
			}
			w, err := weight(b)
			if err == nil {
				err = checkLambdaResult(w, func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) },
					"weights must be finite and non-negative")
			}
			if err != nil {
				return nil, fmt.Errorf("edge weight %s: %w", n.Lambda, err)
			}
			return &types.Batch{Cols: []*types.Column{b.Cols[0], b.Cols[1], w}}, nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	e := &edges{src: make([]int64, in.rows), dst: make([]int64, in.rows)}
	if weighted {
		e.weights = make([]float64, in.rows)
	}
	err = in.copyInto(ctx, func(b *types.Batch, row int) {
		k := b.Len()
		copy(e.src[row:], b.Cols[0].Ints[:k])
		copy(e.dst[row:], b.Cols[1].Ints[:k])
		if weighted {
			copy(e.weights[row:], b.Cols[2].Floats[:k])
		}
	})
	return e, err
}

// newNBTrainOp is the Naive Bayes training operator (paper Section 6.2). The
// last input column is the class label.
func newNBTrainOp(n *plan.NaiveBayesTrain) *blockingOp {
	return &blockingOp{label: "naive_bayes_train", schema: plan.NBModelSchema, compute: func(ctx *Context) (*Materialized, error) {
		m, err := loadFloats(n.Data, ctx, "naive_bayes_train", true)
		if err != nil {
			return nil, fmt.Errorf("naive_bayes_train: %w", err)
		}
		defer ctx.release(m.bytes())
		if m.n == 0 {
			return nil, fmt.Errorf("naive_bayes_train: empty training set")
		}
		model, err := analytics.TrainNB(m.data, m.n, m.d, m.labels, ctx.Workers)
		if err != nil {
			return nil, err
		}
		return modelToRelation(model), nil
	}}
}

// modelToRelation encodes an NBModel in the relational model schema: one
// row per (class, feature).
func modelToRelation(m *analytics.NBModel) *Materialized {
	out := &Materialized{Schema: plan.NBModelSchema}
	for c, label := range m.Labels {
		for f := range m.Means[c] {
			out.AppendRow([]types.Value{
				types.NewInt(label),
				types.NewInt(int64(f)),
				types.NewFloat(m.Priors[c]),
				types.NewFloat(m.Means[c][f]),
				types.NewFloat(m.Stds[c][f]),
			})
		}
	}
	return out
}

// relationToModel decodes the model relation back into an NBModel.
func relationToModel(mat *Materialized) (*analytics.NBModel, error) {
	type key struct {
		label   int64
		feature int64
	}
	priors := map[int64]float64{}
	means := map[key]float64{}
	stds := map[key]float64{}
	maxFeature := int64(-1)
	for _, b := range mat.Batches {
		n := b.Len()
		for i := 0; i < n; i++ {
			label := b.Cols[0].Ints[i]
			feature := b.Cols[1].Ints[i]
			priors[label] = b.Cols[2].Floats[i]
			means[key{label, feature}] = b.Cols[3].Floats[i]
			stds[key{label, feature}] = b.Cols[4].Floats[i]
			if feature > maxFeature {
				maxFeature = feature
			}
		}
	}
	if len(priors) == 0 {
		return nil, fmt.Errorf("naive_bayes_predict: empty model")
	}
	labels := make([]int64, 0, len(priors))
	for l := range priors {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	d := int(maxFeature + 1)
	m := &analytics.NBModel{Labels: labels}
	for _, l := range labels {
		m.Priors = append(m.Priors, priors[l])
		mm := make([]float64, d)
		ss := make([]float64, d)
		for f := 0; f < d; f++ {
			mean, ok := means[key{l, int64(f)}]
			if !ok {
				return nil, fmt.Errorf("naive_bayes_predict: model missing feature %d for label %d", f, l)
			}
			mm[f] = mean
			ss[f] = stds[key{l, int64(f)}]
		}
		m.Means = append(m.Means, mm)
		m.Stds = append(m.Stds, ss)
	}
	return m, nil
}

// newNBPredictOp applies a trained model to feature rows, appending the
// predicted label.
func newNBPredictOp(n *plan.NaiveBayesPredict) *blockingOp {
	schema := n.Schema()
	return &blockingOp{label: "naive_bayes_predict", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		modelMat, err := Run(n.Model, ctx)
		if err != nil {
			return nil, fmt.Errorf("naive_bayes_predict model: %w", err)
		}
		model, err := relationToModel(modelMat)
		if err != nil {
			return nil, err
		}
		d := len(n.Data.Schema())
		if len(model.Means) > 0 && len(model.Means[0]) != d {
			return nil, fmt.Errorf("naive_bayes_predict: model has %d features, data has %d",
				len(model.Means[0]), d)
		}
		return applyModel(n.Data, ctx, "naive_bayes_predict", schema, d, func(*scratch) (func([]float64, []int64) error, error) {
			return func(rows []float64, labels []int64) error {
				for i := range labels {
					labels[i] = model.Predict(rows[i*d : i*d+d])
				}
				return nil
			}, nil
		})
	}}
}
