package plan

import (
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

func (b *Builder) buildTableRef(tr sql.TableRef) (Node, error) {
	switch n := tr.(type) {
	case *sql.TableName:
		return b.buildTableName(n)
	case *sql.Subquery:
		sub, err := b.buildSelect(n.Query)
		if err != nil {
			return nil, err
		}
		if n.Alias != "" {
			return &Alias{Child: sub, Name: n.Alias}, nil
		}
		return sub, nil
	case *sql.Join:
		return b.buildJoin(n)
	case *sql.TableFunc:
		return b.buildTableFunc(n)
	}
	return nil, fmt.Errorf("unsupported table reference %T", tr)
}

func (b *Builder) buildTableName(tn *sql.TableName) (Node, error) {
	// CTE bindings shadow stored tables.
	if binding, ok := b.ctes[tn.Name]; ok {
		if binding.working {
			return &WorkingScan{Name: binding.name, Sch: binding.schema, Alias: tn.Alias, CardEst: binding.card}, nil
		}
		if tn.Alias != "" {
			return &Alias{Child: binding.node, Name: tn.Alias}, nil
		}
		return &Alias{Child: binding.node, Name: tn.Name}, nil
	}
	rel, err := b.Catalog.Resolve(tn.Name)
	if err != nil {
		return nil, err
	}
	return NewScan(rel, tn.Alias, b.Snapshot), nil
}

func (b *Builder) buildJoin(j *sql.Join) (Node, error) {
	l, err := b.buildTableRef(j.L)
	if err != nil {
		return nil, err
	}
	r, err := b.buildTableRef(j.R)
	if err != nil {
		return nil, err
	}
	out := &Join{L: l, R: r}
	switch j.Type {
	case sql.CrossJoin:
		out.Type = CrossJoin
		return out, nil
	case sql.LeftJoin:
		out.Type = LeftJoin
	default:
		out.Type = InnerJoin
	}
	ctx := &expr.ResolveCtx{
		Schema: out.Schema(),
		Quals:  out.Quals(),
	}
	on, err := expr.Resolve(j.On, ctx)
	if err != nil {
		return nil, fmt.Errorf("JOIN ON: %w", err)
	}
	if on.Type() != types.Bool {
		return nil, fmt.Errorf("JOIN ON must be boolean, got %s", on.Type())
	}
	out.On = Fold(on)
	classifyJoinKeys(out)
	return out, nil
}

// classifyJoinKeys splits an ON condition into equi-join key pairs and a
// residual predicate, enabling hash joins.
func classifyJoinKeys(j *Join) {
	nl := len(j.L.Schema())
	conjuncts := splitConjuncts(j.On)
	var residual []expr.Expr
	for _, c := range conjuncts {
		b, ok := c.(*expr.BinOp)
		if !ok || b.Op != expr.OpEq {
			residual = append(residual, c)
			continue
		}
		lc, lok := b.L.(*expr.ColRef)
		rc, rok := b.R.(*expr.ColRef)
		if !lok || !rok {
			residual = append(residual, c)
			continue
		}
		switch {
		case lc.Index < nl && rc.Index >= nl:
			j.EquiLeft = append(j.EquiLeft, lc.Index)
			j.EquiRight = append(j.EquiRight, rc.Index-nl)
		case rc.Index < nl && lc.Index >= nl:
			j.EquiLeft = append(j.EquiLeft, rc.Index)
			j.EquiRight = append(j.EquiRight, lc.Index-nl)
		default:
			residual = append(residual, c)
		}
	}
	j.Residual = combineConjuncts(residual)
}

// splitConjuncts flattens a tree of ANDs into its conjuncts.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.BinOp); ok && b.Op == expr.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

// combineConjuncts rebuilds an AND tree (nil for an empty list).
func combineConjuncts(es []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &expr.BinOp{Op: expr.OpAnd, L: out, R: e, Typ: types.Bool}
		}
	}
	return out
}

// ---- analytical table functions ----

func (b *Builder) buildTableFunc(tf *sql.TableFunc) (Node, error) {
	var node Node
	var err error
	switch tf.Name {
	case "iterate":
		node, err = b.buildIterate(tf)
	case "kmeans":
		node, err = b.buildKMeans(tf)
	case "kmeans_assign":
		node, err = b.buildKMeansAssign(tf)
	case "pagerank":
		node, err = b.buildPageRank(tf)
	case "naive_bayes_train":
		node, err = b.buildNBTrain(tf)
	case "naive_bayes_predict":
		node, err = b.buildNBPredict(tf)
	default:
		return nil, fmt.Errorf("unknown table function %q", tf.Name)
	}
	if err != nil {
		return nil, err
	}
	if tf.Alias != "" {
		node = &Alias{Child: node, Name: tf.Alias}
	}
	return node, nil
}

func (b *Builder) queryArg(tf *sql.TableFunc, i int) (Node, error) {
	if i >= len(tf.Args) || tf.Args[i].Query == nil {
		return nil, fmt.Errorf("%s: argument %d must be a subquery", tf.Name, i+1)
	}
	return b.buildSelect(tf.Args[i].Query)
}

func (b *Builder) scalarArg(tf *sql.TableFunc, i int, what string) (types.Value, error) {
	if i >= len(tf.Args) || tf.Args[i].Scalar == nil {
		return types.Value{}, fmt.Errorf("%s: argument %d (%s) must be a constant", tf.Name, i+1, what)
	}
	r, err := expr.Resolve(tf.Args[i].Scalar, expr.NewResolveCtx(nil, ""))
	if err != nil {
		return types.Value{}, fmt.Errorf("%s: %s: %w", tf.Name, what, err)
	}
	v, err := expr.EvalConst(r)
	if err != nil {
		return types.Value{}, fmt.Errorf("%s: %s: %w", tf.Name, what, err)
	}
	return v, nil
}

// buildIterate plans ITERATE(init, step, stop) — the paper's Listing 1.
func (b *Builder) buildIterate(tf *sql.TableFunc) (Node, error) {
	if len(tf.Args) != 3 {
		return nil, fmt.Errorf("iterate expects 3 subquery arguments (init, step, stop), got %d", len(tf.Args))
	}
	init, err := b.queryArg(tf, 0)
	if err != nil {
		return nil, fmt.Errorf("iterate init: %w", err)
	}
	schema := init.Schema()

	saved := b.ctes["iterate"]
	b.ctes["iterate"] = &cteBinding{working: true, schema: schema, name: "iterate", card: init.Card()}
	defer func() {
		if saved == nil {
			delete(b.ctes, "iterate")
		} else {
			b.ctes["iterate"] = saved
		}
	}()

	step, err := b.queryArg(tf, 1)
	if err != nil {
		return nil, fmt.Errorf("iterate step: %w", err)
	}
	step, err = conformSchema(step, schema)
	if err != nil {
		return nil, fmt.Errorf("iterate: step does not match init: %w", err)
	}
	stop, err := b.queryArg(tf, 2)
	if err != nil {
		return nil, fmt.Errorf("iterate stop: %w", err)
	}
	return &Iterate{Init: init, Step: step, Stop: stop, MaxDepth: b.maxDepth()}, nil
}

// buildKMeans plans KMEANS((data), (centers) [, λ(a,b) dist] [, maxiter]) —
// the paper's Listing 3.
func (b *Builder) buildKMeans(tf *sql.TableFunc) (Node, error) {
	if len(tf.Args) < 2 || len(tf.Args) > 4 {
		return nil, fmt.Errorf("kmeans expects 2-4 arguments, got %d", len(tf.Args))
	}
	data, err := b.queryArg(tf, 0)
	if err != nil {
		return nil, fmt.Errorf("kmeans data: %w", err)
	}
	centers, err := b.queryArg(tf, 1)
	if err != nil {
		return nil, fmt.Errorf("kmeans centers: %w", err)
	}
	ds, cs := data.Schema(), centers.Schema()
	if len(ds) == 0 {
		return nil, fmt.Errorf("kmeans: data has no columns")
	}
	if len(ds) != len(cs) {
		return nil, fmt.Errorf("kmeans: data has %d dimensions, centers %d", len(ds), len(cs))
	}
	names := make([]string, len(ds))
	for i, c := range ds {
		if !c.Type.IsNumeric() {
			return nil, fmt.Errorf("kmeans: data column %q is %s, need a numeric type", c.Name, c.Type)
		}
		if !cs[i].Type.IsNumeric() {
			return nil, fmt.Errorf("kmeans: centers column %q is %s, need a numeric type", cs[i].Name, cs[i].Type)
		}
		names[i] = c.Name
	}

	node := &KMeans{Data: data, Centers: centers, MaxIter: 100, OutNames: names}
	argIdx := 2
	if argIdx < len(tf.Args) && tf.Args[argIdx].Lambda != nil {
		l := tf.Args[argIdx].Lambda
		if len(l.Params) != 2 {
			return nil, fmt.Errorf("kmeans: distance lambda must take 2 parameters, got %d", len(l.Params))
		}
		if node.Lambda, err = bindDistance("kmeans", l, ds); err != nil {
			return nil, err
		}
		argIdx++
	}
	if argIdx < len(tf.Args) {
		v, err := b.scalarArg(tf, argIdx, "maxiter")
		if err != nil {
			return nil, err
		}
		if v.AsInt() < 1 {
			return nil, fmt.Errorf("kmeans: maxiter must be >= 1, got %d", v.AsInt())
		}
		node.MaxIter = int(v.AsInt())
		argIdx++
	}
	if argIdx != len(tf.Args) {
		return nil, fmt.Errorf("kmeans: unexpected extra arguments")
	}
	return node, nil
}

// buildKMeansAssign plans KMEANS_ASSIGN((data), (centers) [, λ(a,b) dist]).
func (b *Builder) buildKMeansAssign(tf *sql.TableFunc) (Node, error) {
	if len(tf.Args) < 2 || len(tf.Args) > 3 {
		return nil, fmt.Errorf("kmeans_assign expects 2-3 arguments, got %d", len(tf.Args))
	}
	data, err := b.queryArg(tf, 0)
	if err != nil {
		return nil, fmt.Errorf("kmeans_assign data: %w", err)
	}
	centers, err := b.queryArg(tf, 1)
	if err != nil {
		return nil, fmt.Errorf("kmeans_assign centers: %w", err)
	}
	ds, cs := data.Schema(), centers.Schema()
	if len(ds) == 0 || len(ds) != len(cs) {
		return nil, fmt.Errorf("kmeans_assign: data has %d dimensions, centers %d", len(ds), len(cs))
	}
	for i, c := range ds {
		if !c.Type.IsNumeric() || !cs[i].Type.IsNumeric() {
			return nil, fmt.Errorf("kmeans_assign: all columns must be numeric")
		}
	}
	node := &KMeansAssign{Data: data, Centers: centers}
	if len(tf.Args) == 3 {
		l := tf.Args[2].Lambda
		if l == nil {
			return nil, fmt.Errorf("kmeans_assign: third argument must be a distance lambda")
		}
		if len(l.Params) != 2 {
			return nil, fmt.Errorf("kmeans_assign: distance lambda must take 2 parameters, got %d", len(l.Params))
		}
		if node.Lambda, err = bindDistance("kmeans_assign", l, ds); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// bindDistance binds a distance λ(a, b) to the row layout the k-Means
// kernels evaluate it over: both parameters take the data's field names, all
// DOUBLE. Its body folds like any other SQL expression.
func bindDistance(fn string, l *expr.Lambda, data types.Schema) (*expr.Lambda, error) {
	doubles := make(types.Schema, len(data))
	for i, c := range data {
		doubles[i] = types.ColumnInfo{Name: c.Name, Type: types.Float64}
	}
	return bindLambda(fn, l, doubles, doubles)
}

// bindLambda binds a table function's λ argument, one schema per parameter,
// and folds its body.
func bindLambda(fn string, l *expr.Lambda, schemas ...types.Schema) (*expr.Lambda, error) {
	bound, err := expr.BindLambda(l, schemas)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fn, err)
	}
	bound.Body = Fold(bound.Body)
	return bound, nil
}

// buildPageRank plans PAGERANK((edges) [, λ(e) weight], damping, epsilon
// [, maxiter]) — the paper's Listing 2, plus the Section 7 edge-weight
// variation point. With a weight lambda, the edges subquery may carry
// additional property columns; those the lambda reads must be numeric.
func (b *Builder) buildPageRank(tf *sql.TableFunc) (Node, error) {
	if len(tf.Args) < 1 || len(tf.Args) > 5 {
		return nil, fmt.Errorf("pagerank expects 1-5 arguments, got %d", len(tf.Args))
	}
	edges, err := b.queryArg(tf, 0)
	if err != nil {
		return nil, fmt.Errorf("pagerank edges: %w", err)
	}
	node := &PageRank{Edges: edges, Damping: 0.85, Epsilon: 1e-4, MaxIter: 100}

	argIdx := 1
	if argIdx < len(tf.Args) && tf.Args[argIdx].Lambda != nil {
		l := tf.Args[argIdx].Lambda
		if len(l.Params) != 1 {
			return nil, fmt.Errorf("pagerank: weight lambda must take 1 edge parameter, got %d", len(l.Params))
		}
		// The λ reads the edge batches themselves; BindLambda casts each
		// field it reads to DOUBLE.
		if node.Lambda, err = bindLambda("pagerank", l, edges.Schema()); err != nil {
			return nil, err
		}
		argIdx++
	}

	es := edges.Schema()
	minCols := 2
	if len(es) < minCols || es[0].Type != types.Int64 || es[1].Type != types.Int64 {
		return nil, fmt.Errorf("pagerank: edges must start with two BIGINT columns (src, dest), got %s", es)
	}
	if node.Lambda == nil && len(es) != 2 {
		return nil, fmt.Errorf("pagerank: edges must have exactly (src, dest) unless a weight lambda is given, got %s", es)
	}

	if argIdx < len(tf.Args) {
		v, err := b.scalarArg(tf, argIdx, "damping")
		if err != nil {
			return nil, err
		}
		node.Damping = v.AsFloat()
		if node.Damping < 0 || node.Damping >= 1 {
			return nil, fmt.Errorf("pagerank: damping must be in [0, 1), got %g", node.Damping)
		}
		argIdx++
	}
	if argIdx < len(tf.Args) {
		v, err := b.scalarArg(tf, argIdx, "epsilon")
		if err != nil {
			return nil, err
		}
		node.Epsilon = v.AsFloat()
		if node.Epsilon < 0 {
			return nil, fmt.Errorf("pagerank: epsilon must be >= 0, got %g", node.Epsilon)
		}
		argIdx++
	}
	if argIdx < len(tf.Args) {
		v, err := b.scalarArg(tf, argIdx, "maxiter")
		if err != nil {
			return nil, err
		}
		if v.AsInt() < 1 {
			return nil, fmt.Errorf("pagerank: maxiter must be >= 1, got %d", v.AsInt())
		}
		node.MaxIter = int(v.AsInt())
		argIdx++
	}
	if argIdx != len(tf.Args) {
		return nil, fmt.Errorf("pagerank: unexpected extra arguments")
	}
	return node, nil
}

func (b *Builder) buildNBTrain(tf *sql.TableFunc) (Node, error) {
	if len(tf.Args) != 1 {
		return nil, fmt.Errorf("naive_bayes_train expects 1 subquery argument, got %d", len(tf.Args))
	}
	data, err := b.queryArg(tf, 0)
	if err != nil {
		return nil, fmt.Errorf("naive_bayes_train data: %w", err)
	}
	ds := data.Schema()
	if len(ds) < 2 {
		return nil, fmt.Errorf("naive_bayes_train: need at least one feature plus the label column")
	}
	for _, c := range ds[:len(ds)-1] {
		if !c.Type.IsNumeric() {
			return nil, fmt.Errorf("naive_bayes_train: feature %q is %s, need a numeric type", c.Name, c.Type)
		}
	}
	if ds[len(ds)-1].Type != types.Int64 {
		return nil, fmt.Errorf("naive_bayes_train: label column %q must be BIGINT", ds[len(ds)-1].Name)
	}
	return &NaiveBayesTrain{Data: data}, nil
}

func (b *Builder) buildNBPredict(tf *sql.TableFunc) (Node, error) {
	if len(tf.Args) != 2 {
		return nil, fmt.Errorf("naive_bayes_predict expects 2 subquery arguments, got %d", len(tf.Args))
	}
	model, err := b.queryArg(tf, 0)
	if err != nil {
		return nil, fmt.Errorf("naive_bayes_predict model: %w", err)
	}
	if !model.Schema().Equal(NBModelSchema) {
		return nil, fmt.Errorf("naive_bayes_predict: model schema must be %s, got %s",
			NBModelSchema, model.Schema())
	}
	data, err := b.queryArg(tf, 1)
	if err != nil {
		return nil, fmt.Errorf("naive_bayes_predict data: %w", err)
	}
	for _, c := range data.Schema() {
		if !c.Type.IsNumeric() {
			return nil, fmt.Errorf("naive_bayes_predict: feature %q is %s, need a numeric type", c.Name, c.Type)
		}
	}
	return &NaiveBayesPredict{Model: model, Data: data}, nil
}
