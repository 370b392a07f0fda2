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

// appendRowFloats appends the first d columns of row i of b to dst as
// float64s. NULLs in analytical inputs are rejected.
func appendRowFloats(dst []float64, b *types.Batch, i, d int) ([]float64, error) {
	for j := 0; j < d; j++ {
		col := b.Cols[j]
		if col.IsNull(i) {
			return nil, fmt.Errorf("NULL in analytical input column %q", b.Schema[j].Name)
		}
		if col.T == types.Int64 {
			dst = append(dst, float64(col.Ints[i]))
		} else {
			dst = append(dst, col.Floats[i])
		}
	}
	return dst, nil
}

// floatMatrix is a materialized numeric input: n rows of d float64 columns,
// row-major.
type floatMatrix struct {
	data []float64
	n, d int
}

// bytes is what a loaded matrix holds of the query budget; the operator that
// loaded it releases that when its kernel returns.
func (m *floatMatrix) bytes() int64 { return 8 * int64(len(m.data)) }

// floatSink loads one part of a numeric input, charged to the operator
// named by label.
type floatSink struct {
	ctx   *Context
	label string
	d     int
	data  []float64
}

func (s *floatSink) consume(b *types.Batch) (err error) {
	rows := b.Len()
	if err := s.ctx.charge(s.label, 8*int64(s.d)*int64(rows)); err != nil {
		return err
	}
	for i := 0; i < rows && err == nil; i++ {
		s.data, err = appendRowFloats(s.data, b, i, s.d)
	}
	return err
}

// loadFloats materializes a plan into a row-major float matrix on behalf of
// the operator named by label.
func loadFloats(p plan.Node, ctx *Context, label string) (*floatMatrix, error) {
	d := len(p.Schema())
	for _, c := range p.Schema() {
		if !c.Type.IsNumeric() {
			return nil, fmt.Errorf("analytical input column %q is %s, need a numeric type", c.Name, c.Type)
		}
	}
	sinks, err := drive(ctx, partsOf(p, ctx), "", func(Operator) (*floatSink, error) {
		return &floatSink{ctx: ctx, label: label, d: d}, nil
	})
	if err != nil {
		return nil, err
	}
	rest := 0
	for _, s := range sinks[1:] {
		rest += len(s.data)
	}
	data := slices.Grow(sinks[0].data, rest)
	for _, s := range sinks[1:] {
		data = append(data, s.data...)
	}
	return &floatMatrix{data: data, n: len(data) / d, d: d}, nil
}

// distanceMetric prepares a bound distance λ(a, b) over d DOUBLE fields for
// the k-Means kernels; a nil λ yields their default, squared Euclidean
// distance, as a nil metric. For each set of centres, centre c's fields
// replace b's as constants, and the folded body compiles with the ordinary
// expression compiler: k compiles per round, none per row or block. The
// metric evaluates a block of rows as d columns transposed from the
// row-major matrix; a NULL or NaN distance is an error naming the λ.
func distanceMetric(l *expr.Lambda, d int, what string) func(centers []float64) (analytics.Metric, error) {
	return func(centers []float64) (analytics.Metric, error) {
		if l == nil {
			return nil, nil
		}
		evs := make([]expr.Evaluator, len(centers)/d)
		for c := range evs {
			centre := centers[c*d : c*d+d]
			body := expr.Rewrite(l.Body, func(e expr.Expr) expr.Expr {
				if ref, ok := e.(*expr.ColRef); ok && ref.Index >= d {
					return &expr.Const{Val: types.NewFloat(centre[ref.Index-d])}
				}
				return e
			})
			ev, err := expr.Compile(plan.Fold(body))
			if err != nil {
				return nil, fmt.Errorf("%s: distance %s: %w", what, l, err)
			}
			evs[c] = ev
		}
		return func(rows []float64, dist [][]float64) error {
			b := columnsOf(rows, d)
			for c, ev := range evs {
				col, err := ev(b)
				if err == nil {
					err = checkLambdaResult(col, func(x float64) bool { return !math.IsNaN(x) }, "distances must be numbers")
				}
				if err != nil {
					return fmt.Errorf("%s: distance %s: %w", what, l, err)
				}
				copy(dist[c], col.Floats)
			}
			return nil
		}, nil
	}
}

// columnsOf is a block of row-major rows of d floats as a batch of d DOUBLE
// columns.
func columnsOf(rows []float64, d int) *types.Batch {
	m := len(rows) / d
	buf := make([]float64, len(rows))
	b := &types.Batch{Cols: make([]*types.Column, d)}
	for j := range b.Cols {
		col := buf[j*m : (j+1)*m : (j+1)*m]
		for i := range col {
			col[i] = rows[i*d+j]
		}
		b.Cols[j] = &types.Column{T: types.Float64, Floats: col}
	}
	return b
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
	dist := distanceMetric(n.Lambda, len(n.OutNames), "kmeans")
	schema := n.Schema()
	return &blockingOp{label: "kmeans", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		data, err := loadFloats(n.Data, ctx, "kmeans")
		if err != nil {
			return nil, fmt.Errorf("kmeans data: %w", err)
		}
		defer ctx.release(data.bytes())
		centers, err := loadFloats(n.Centers, ctx, "kmeans")
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
// floats, gets the model's labels appended as a column. The output is
// charged to the operator named by label.
type applySink struct {
	ctx     *Context
	label   string
	schema  types.Schema
	d       int
	predict func(rows []float64, labels []int64) error
	rows    []float64
	out     []*types.Batch
}

func (s *applySink) consume(b *types.Batch) (err error) {
	n := b.Len()
	s.rows = s.rows[:0]
	for i := 0; i < n; i++ {
		if s.rows, err = appendRowFloats(s.rows, b, i, s.d); err != nil {
			return err
		}
	}
	labels := &types.Column{T: types.Int64, Ints: make([]int64, n)}
	if err := s.predict(s.rows, labels.Ints); err != nil {
		return err
	}
	nb := &types.Batch{Schema: s.schema, Cols: append(append([]*types.Column{}, b.Cols...), labels)}
	s.out = append(s.out, nb)
	return s.ctx.charge(s.label, batchBytes(nb))
}

// applyModel drives data through one applySink per part and concatenates
// the labelled batches in part order. predict labels one batch's rows and
// must be safe for concurrent use.
func applyModel(data plan.Node, ctx *Context, label string, schema types.Schema, d int, predict func(rows []float64, labels []int64) error) (*Materialized, error) {
	sinks, err := drive(ctx, partsOf(data, ctx), "", func(Operator) (*applySink, error) {
		return &applySink{ctx: ctx, label: label, schema: schema, d: d, predict: predict}, nil
	})
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
	dist := distanceMetric(n.Lambda, d, "kmeans_assign")
	schema := n.Schema()
	return &blockingOp{label: "kmeans_assign", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		centers, err := loadFloats(n.Centers, ctx, "kmeans_assign")
		if err != nil {
			return nil, fmt.Errorf("kmeans_assign centers: %w", err)
		}
		defer ctx.release(centers.bytes())
		if centers.n == 0 {
			return nil, fmt.Errorf("kmeans_assign: no centers")
		}
		metric, err := dist(centers.data)
		if err != nil {
			return nil, err
		}
		return applyModel(n.Data, ctx, "kmeans_assign", schema, d, func(rows []float64, labels []int64) error {
			ids, err := analytics.Assign(rows, len(labels), d, centers.data, centers.n, metric)
			for i, c := range ids {
				labels[i] = int64(c)
			}
			return err
		})
	}}
}

// newPageRankOp is the physical PageRank operator (paper Section 6.3): it
// builds a temporary CSR index with dense re-labeled vertex ids, runs the
// ranking iterations, and maps ids back on output. An edge-weight lambda
// (Section 7), compiled once like any other expression over the edge
// batches, makes the CSR weighted.
func newPageRankOp(n *plan.PageRank) (*blockingOp, error) {
	var weight expr.Evaluator
	if n.Lambda != nil {
		ev, err := expr.Compile(n.Lambda.Body)
		if err != nil {
			return nil, fmt.Errorf("pagerank: edge weight %s: %w", n.Lambda, err)
		}
		weight = ev
	}
	schema := n.Schema()
	return &blockingOp{label: "pagerank", schema: schema, compute: func(ctx *Context) (*Materialized, error) {
		sinks, err := drive(ctx, partsOf(n.Edges, ctx), "", func(Operator) (*edgeSink, error) {
			return &edgeSink{ctx: ctx, lambda: n.Lambda, weight: weight}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("pagerank edges: %w", err)
		}
		edges := sinks[0]
		for _, s := range sinks[1:] {
			edges.src = append(edges.src, s.src...)
			edges.dst = append(edges.dst, s.dst...)
			edges.weights = append(edges.weights, s.weights...)
		}
		defer ctx.release(8 * int64(len(edges.src)+len(edges.dst)+len(edges.weights)))
		g, err := graph.BuildWeighted(edges.src, edges.dst, edges.weights)
		if err != nil {
			return nil, err
		}
		nRanks := int64(g.N)
		res, err := analytics.PageRank(g, analytics.PageRankOptions{
			Damping: n.Damping, Epsilon: n.Epsilon, MaxIter: n.MaxIter, Workers: ctx.Workers,
			OnIteration: ctx.kernelRound(n, func(float64) int64 { return nRanks }),
		})
		if err != nil {
			return nil, err
		}
		out := &Materialized{Schema: schema}
		for v := 0; v < g.N; v++ {
			// Reverse mapping: dense internal id back to the original id.
			out.AppendRow([]types.Value{types.NewInt(g.OrigIDs[v]), types.NewFloat(res.Ranks[v])})
		}
		return out, nil
	}}, nil
}

// edgeSink loads one part of an edge input into src/dst arrays; with a
// weight λ, its compiled body evaluates each edge batch into per-edge
// weights. The arrays are charged to the pagerank operator.
type edgeSink struct {
	ctx      *Context
	lambda   *expr.Lambda
	weight   expr.Evaluator
	src, dst []int64
	weights  []float64
}

func (s *edgeSink) consume(b *types.Batch) error {
	sc, dc := b.Cols[0], b.Cols[1]
	n := b.Len()
	for i := 0; i < n; i++ {
		if sc.IsNull(i) || dc.IsNull(i) {
			return fmt.Errorf("NULL vertex id in edge input")
		}
	}
	perEdge := int64(16)
	if s.weight != nil {
		perEdge += 8
	}
	if err := s.ctx.charge("pagerank", perEdge*int64(n)); err != nil {
		return err
	}
	s.src = append(s.src, sc.Ints...)
	s.dst = append(s.dst, dc.Ints...)
	if s.weight == nil {
		return nil
	}
	w, err := s.weight(b)
	if err == nil {
		err = checkLambdaResult(w, func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) },
			"weights must be finite and non-negative")
	}
	if err != nil {
		return fmt.Errorf("edge weight %s: %w", s.lambda, err)
	}
	s.weights = append(s.weights, w.Floats...)
	return nil
}

// newNBTrainOp is the Naive Bayes training operator (paper Section 6.2). The
// last input column is the class label.
func newNBTrainOp(n *plan.NaiveBayesTrain) *blockingOp {
	return &blockingOp{label: "naive_bayes_train", schema: plan.NBModelSchema, compute: func(ctx *Context) (*Materialized, error) {
		m, err := loadFloats(n.Data, ctx, "naive_bayes_train")
		if err != nil {
			return nil, fmt.Errorf("naive_bayes_train: %w", err)
		}
		defer ctx.release(m.bytes())
		if m.n == 0 {
			return nil, fmt.Errorf("naive_bayes_train: empty training set")
		}
		// Split off the label column.
		d := m.d - 1
		feats := make([]float64, m.n*d)
		labels := make([]int64, m.n)
		for i := 0; i < m.n; i++ {
			copy(feats[i*d:], m.data[i*m.d:i*m.d+d])
			labels[i] = int64(m.data[i*m.d+d])
		}
		model, err := analytics.TrainNB(feats, m.n, d, labels, ctx.Workers)
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
		return applyModel(n.Data, ctx, "naive_bayes_predict", schema, d, func(rows []float64, labels []int64) error {
			for i := range labels {
				labels[i] = model.Predict(rows[i*d : i*d+d])
			}
			return nil
		})
	}}
}
