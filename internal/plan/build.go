package plan

import (
	"fmt"
	"strings"

	"lambdadb/internal/catalog"
	"lambdadb/internal/expr"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

// Alias renames the qualifier of its child's columns (FROM ... AS alias).
type Alias struct {
	Child Node
	Name  string
}

func (a *Alias) Schema() types.Schema { return a.Child.Schema() }
func (a *Alias) Quals() []string      { return uniformQuals(len(a.Child.Schema()), a.Name) }
func (a *Alias) Card() float64        { return a.Child.Card() }
func (a *Alias) Children() []Node     { return []Node{a.Child} }
func (a *Alias) Explain() string      { return fmt.Sprintf("Alias %s", a.Name) }

// Builder translates parsed SQL queries into logical plans.
type Builder struct {
	Catalog  catalog.Catalog
	Snapshot uint64
	// MaxDepth bounds ITERATE / recursive-CTE rounds in the plans this
	// builder produces (runaway-loop protection); NewBuilder sets the
	// default, engines may lower it per deployment.
	MaxDepth int
	// Stats supplies ANALYZE-collected table statistics to the cost-based
	// access pass; nil means plan on shape heuristics and index metadata.
	Stats StatsProvider

	ctes map[string]*cteBinding
}

type cteBinding struct {
	node    Node // plan inlined at each reference (non-working bindings)
	working bool // true inside a recursive CTE / ITERATE definition
	schema  types.Schema
	name    string
	// card estimates a working table by its init plan: the round's input is
	// the previous round's output, and the first round's is the init's.
	card float64
}

// NewBuilder returns a Builder whose scans estimate their tables' row
// counts at the given snapshot.
func NewBuilder(cat catalog.Catalog, snapshot uint64) *Builder {
	return &Builder{Catalog: cat, Snapshot: snapshot, MaxDepth: defaultMaxDepth,
		ctes: map[string]*cteBinding{}}
}

// defaultMaxDepth bounds iterate/recursive executions; the paper notes the
// system must detect and abort runaway loops.
const defaultMaxDepth = 1_000_000

// maxDepth returns the builder's iteration bound, defending against
// zero-valued Builders constructed without NewBuilder.
func (b *Builder) maxDepth() int {
	if b.MaxDepth > 0 {
		return b.MaxDepth
	}
	return defaultMaxDepth
}

// BuildSelect plans a full SELECT statement, applying the rule-based
// optimizer followed by the cost-based access pass (join order, build
// sides, index scans).
func (b *Builder) BuildSelect(sel *sql.Select) (Node, error) {
	n, err := b.buildSelect(sel)
	if err != nil {
		return nil, err
	}
	return OptimizeAccess(Optimize(n), b.Stats), nil
}

func (b *Builder) buildSelect(sel *sql.Select) (Node, error) {
	// Register CTE bindings; restore the previous scope when done.
	saved := map[string]*cteBinding{}
	defer func() {
		for name, old := range saved {
			if old == nil {
				delete(b.ctes, name)
			} else {
				b.ctes[name] = old
			}
		}
	}()
	for _, cte := range sel.With {
		saved[cte.Name] = b.ctes[cte.Name]
		node, err := b.buildCTE(cte)
		if err != nil {
			return nil, err
		}
		// Materialize each CTE once per execution epoch; subtrees that read
		// no working table are loop-invariant and cached across iterations.
		shared := &Shared{Child: node, Invariant: !ReadsWorkingTable(node)}
		b.ctes[cte.Name] = &cteBinding{node: shared, schema: node.Schema(), name: cte.Name}
	}

	node, err := b.buildQueryExpr(sel.Body)
	if err != nil {
		return nil, err
	}

	if len(sel.OrderBy) > 0 {
		keys, err := b.resolveOrderBy(sel.OrderBy, node)
		if err != nil {
			return nil, err
		}
		node = &Sort{Child: node, Keys: keys, TopK: -1}
	}

	if sel.Limit != nil || sel.Offset != nil {
		lim := &Limit{Child: node, N: -1}
		if sel.Limit != nil {
			v, err := b.constInt(sel.Limit, "LIMIT")
			if err != nil {
				return nil, err
			}
			lim.N = v
		}
		if sel.Offset != nil {
			v, err := b.constInt(sel.Offset, "OFFSET")
			if err != nil {
				return nil, err
			}
			lim.Offset = v
		}
		node = lim
	}
	return node, nil
}

func (b *Builder) constInt(e expr.Expr, what string) (int64, error) {
	r, err := expr.Resolve(e, expr.NewResolveCtx(nil, ""))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	v, err := expr.EvalConst(r, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if v.Null || !v.T.IsNumeric() {
		return 0, fmt.Errorf("%s must be a numeric constant", what)
	}
	return v.AsInt(), nil
}

// buildCTE plans one WITH entry. Recursive CTEs must have the SQL:1999
// shape `initial UNION [ALL] recursive`.
func (b *Builder) buildCTE(cte sql.CTE) (Node, error) {
	if !cte.Recursive {
		node, err := b.buildSelect(cte.Query)
		if err != nil {
			return nil, fmt.Errorf("CTE %s: %w", cte.Name, err)
		}
		return b.applyCTEColumns(node, cte)
	}
	setop, ok := cte.Query.Body.(*sql.SetOp)
	if !ok {
		return nil, fmt.Errorf("recursive CTE %s must be `initial UNION [ALL] recursive`", cte.Name)
	}
	init, err := b.buildQueryExpr(setop.L)
	if err != nil {
		return nil, fmt.Errorf("recursive CTE %s (initial): %w", cte.Name, err)
	}
	initSchema := init.Schema()
	if len(cte.Columns) > 0 {
		if len(cte.Columns) != len(initSchema) {
			return nil, fmt.Errorf("recursive CTE %s: %d column aliases for %d columns",
				cte.Name, len(cte.Columns), len(initSchema))
		}
		renamed := make(types.Schema, len(initSchema))
		for i := range initSchema {
			renamed[i] = types.ColumnInfo{Name: cte.Columns[i], Type: initSchema[i].Type}
		}
		init = renameColumns(init, cte.Columns)
		initSchema = renamed
	}

	// Plan the recursive term with the CTE name bound to the working table.
	savedBinding := b.ctes[cte.Name]
	b.ctes[cte.Name] = &cteBinding{working: true, schema: initSchema, name: cte.Name, card: init.Card()}
	rec, err := b.buildQueryExpr(setop.R)
	if savedBinding == nil {
		delete(b.ctes, cte.Name)
	} else {
		b.ctes[cte.Name] = savedBinding
	}
	if err != nil {
		return nil, fmt.Errorf("recursive CTE %s (recursive term): %w", cte.Name, err)
	}
	rec, err = conformSchema(rec, initSchema)
	if err != nil {
		return nil, fmt.Errorf("recursive CTE %s: %w", cte.Name, err)
	}
	return &RecursiveCTE{Name: cte.Name, Init: init, Rec: rec, All: setop.All,
		MaxDepth: b.maxDepth()}, nil
}

func (b *Builder) applyCTEColumns(node Node, cte sql.CTE) (Node, error) {
	if len(cte.Columns) == 0 {
		return node, nil
	}
	if len(cte.Columns) != len(node.Schema()) {
		return nil, fmt.Errorf("CTE %s: %d column aliases for %d columns",
			cte.Name, len(cte.Columns), len(node.Schema()))
	}
	return renameColumns(node, cte.Columns), nil
}

// renameColumns wraps node in a Project that renames output columns.
func renameColumns(node Node, names []string) Node {
	schema := node.Schema()
	exprs := make([]expr.Expr, len(schema))
	for i, c := range schema {
		exprs[i] = &expr.ColRef{Name: c.Name, Index: i, Typ: c.Type}
	}
	return &Project{Child: node, Exprs: exprs, Names: append([]string{}, names...)}
}

// conformSchema makes node's output type-compatible with want, inserting
// numeric casts where needed.
func conformSchema(node Node, want types.Schema) (Node, error) {
	have := node.Schema()
	if len(have) != len(want) {
		return nil, fmt.Errorf("branch has %d columns, expected %d", len(have), len(want))
	}
	needProject := false
	exprs := make([]expr.Expr, len(have))
	names := make([]string, len(have))
	for i := range have {
		ref := expr.Expr(&expr.ColRef{Name: have[i].Name, Index: i, Typ: have[i].Type})
		names[i] = want[i].Name
		if have[i].Type != want[i].Type {
			if !(have[i].Type.IsNumeric() && want[i].Type.IsNumeric()) {
				return nil, fmt.Errorf("column %d: cannot unify %s with %s",
					i+1, have[i].Type, want[i].Type)
			}
			ref = &expr.Cast{E: ref, To: want[i].Type}
			needProject = true
		}
		if have[i].Name != want[i].Name {
			needProject = true
		}
		exprs[i] = ref
	}
	if !needProject {
		return node, nil
	}
	return &Project{Child: node, Exprs: exprs, Names: names}, nil
}

func (b *Builder) buildQueryExpr(q sql.QueryExpr) (Node, error) {
	switch n := q.(type) {
	case *sql.SelectCore:
		return b.buildCore(n)
	case *sql.SetOp:
		l, err := b.buildQueryExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := b.buildQueryExpr(n.R)
		if err != nil {
			return nil, err
		}
		// Unify branch schemas on the left's column names, widening
		// numerics as needed.
		lSchema := l.Schema()
		rSchema := r.Schema()
		if len(lSchema) != len(rSchema) {
			return nil, fmt.Errorf("UNION branches have %d and %d columns",
				len(lSchema), len(rSchema))
		}
		unified := make(types.Schema, len(lSchema))
		for i := range lSchema {
			t := lSchema[i].Type
			if rSchema[i].Type != t {
				if !(t.IsNumeric() && rSchema[i].Type.IsNumeric()) {
					return nil, fmt.Errorf("UNION column %d: cannot unify %s with %s",
						i+1, t, rSchema[i].Type)
				}
				t = types.Float64
			}
			unified[i] = types.ColumnInfo{Name: lSchema[i].Name, Type: t}
		}
		if l, err = conformSchema(l, unified); err != nil {
			return nil, err
		}
		if r, err = conformSchema(r, unified); err != nil {
			return nil, err
		}
		return &Union{L: l, R: r, All: n.All}, nil
	}
	return nil, fmt.Errorf("unsupported query expression %T", q)
}

// dummyInput is the implicit one-row input of a FROM-less SELECT.
func dummyInput() Node {
	return &Values{
		Sch:  types.Schema{{Name: "$dummy", Type: types.Int64}},
		Rows: [][]types.Value{{types.NewInt(0)}},
	}
}

func (b *Builder) buildCore(core *sql.SelectCore) (Node, error) {
	var node Node
	if core.From != nil {
		n, err := b.buildTableRef(core.From)
		if err != nil {
			return nil, err
		}
		node = n
	} else {
		node = dummyInput()
	}
	inputCtx := &expr.ResolveCtx{Schema: node.Schema(), Quals: node.Quals()}

	if core.Where != nil {
		pred, err := expr.Resolve(core.Where, inputCtx)
		if err == nil {
			pred, err = expr.As(pred, types.Bool, "condition")
		}
		if err != nil {
			return nil, fmt.Errorf("WHERE: %w", err)
		}
		if expr.IsAggregate(pred) {
			return nil, fmt.Errorf("aggregates are not allowed in WHERE")
		}
		node = &Filter{Child: node, Pred: Fold(pred)}
	}

	// Expand stars and resolve the select list.
	items, names, err := b.resolveItems(core, inputCtx)
	if err != nil {
		return nil, err
	}

	hasAgg := len(core.GroupBy) > 0 || core.Having != nil
	for _, it := range items {
		if expr.IsAggregate(it) {
			hasAgg = true
		}
	}

	if !hasAgg {
		node = &Project{Child: node, Exprs: foldAll(items), Names: names}
	} else {
		n, err := b.buildAggregate(core, node, inputCtx, items, names)
		if err != nil {
			return nil, err
		}
		node = n
	}

	if core.Distinct {
		node = &Distinct{Child: node}
	}
	return node, nil
}

func foldAll(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = Fold(e)
	}
	return out
}

// resolveItems expands stars and resolves all projection expressions.
func (b *Builder) resolveItems(core *sql.SelectCore, ctx *expr.ResolveCtx) ([]expr.Expr, []string, error) {
	var items []expr.Expr
	var names []string
	for _, it := range core.Items {
		switch {
		case it.Star:
			for i, c := range ctx.Schema {
				if strings.HasPrefix(c.Name, "$") {
					continue // hidden dummy columns
				}
				items = append(items, &expr.ColRef{Name: c.Name, Index: i, Typ: c.Type})
				names = append(names, c.Name)
			}
		case it.TableStar != "":
			found := false
			for i, c := range ctx.Schema {
				if strings.EqualFold(ctx.Quals[i], it.TableStar) {
					items = append(items, &expr.ColRef{Name: c.Name, Index: i, Typ: c.Type})
					names = append(names, c.Name)
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("unknown table %q in %s.*", it.TableStar, it.TableStar)
			}
		default:
			e, err := expr.Resolve(it.Expr, ctx)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, e)
			names = append(names, itemName(it))
		}
	}
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("empty select list")
	}
	return items, names, nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*expr.ColRef); ok {
		return c.Name
	}
	if f, ok := it.Expr.(*expr.FuncCall); ok {
		return f.Name
	}
	return it.Expr.String()
}

// buildAggregate plans GROUP BY / HAVING / aggregate select lists: an
// Aggregate node computing keys and aggregates, then a Project (and
// optional HAVING Filter) on top.
func (b *Builder) buildAggregate(core *sql.SelectCore, child Node,
	ctx *expr.ResolveCtx, items []expr.Expr, names []string) (Node, error) {

	keys := make([]expr.Expr, 0, len(core.GroupBy))
	keyNames := make([]string, 0, len(core.GroupBy))
	for _, g := range core.GroupBy {
		k, err := expr.Resolve(g, ctx)
		if err != nil {
			return nil, fmt.Errorf("GROUP BY: %w", err)
		}
		if expr.IsAggregate(k) {
			return nil, fmt.Errorf("aggregates are not allowed in GROUP BY")
		}
		keys = append(keys, Fold(k))
		name := k.String()
		if c, ok := k.(*expr.ColRef); ok {
			name = c.Name
		}
		keyNames = append(keyNames, name)
	}

	agg := &Aggregate{Child: child, Keys: keys, KeyNames: keyNames}

	var having expr.Expr
	if core.Having != nil {
		h, err := expr.Resolve(core.Having, ctx)
		if err == nil {
			having, err = expr.As(h, types.Bool, "condition")
		}
		if err != nil {
			return nil, fmt.Errorf("HAVING: %w", err)
		}
	}

	// Rewrite post-aggregation expressions: aggregate calls become
	// references to aggregate outputs; then group-key expressions outside
	// them become references to key outputs (an aggregate's argument reads
	// the input rows, keys included, as they are); any other column
	// reference is an error.
	rewrite := func(e expr.Expr) (expr.Expr, error) {
		var rerr error
		out := expr.Rewrite(e, func(n expr.Expr) expr.Expr {
			if rerr != nil {
				return n
			}
			if f, ok := n.(*expr.FuncCall); ok && expr.AggregateFuncs[f.Name] {
				spec, err := aggSpecFor(f)
				if err != nil {
					rerr = err
					return n
				}
				// Deduplicate identical aggregates.
				for gi, g := range agg.Aggs {
					if g.Name == spec.Name {
						return &expr.ColRef{Name: g.Name, Index: len(keys) + gi, Typ: g.Type}
					}
				}
				agg.Aggs = append(agg.Aggs, spec)
				return &expr.ColRef{Name: spec.Name,
					Index: len(keys) + len(agg.Aggs) - 1, Typ: spec.Type}
			}
			return n
		})
		if rerr != nil {
			return nil, rerr
		}
		out = expr.Rewrite(out, func(n expr.Expr) expr.Expr {
			// Group-key match (structural, by string form).
			for ki, k := range keys {
				if n.String() == k.String() && n.Type() == k.Type() {
					return &expr.ColRef{Name: keyNames[ki], Index: ki, Typ: k.Type()}
				}
			}
			return n
		})
		// Validate: any remaining ColRef must point into the aggregate's
		// output (index < len(keys)+len(aggs)); references that survived
		// with input indices are non-grouped columns.
		aggSchema := agg.Schema()
		var bad expr.Expr
		expr.Walk(out, func(n expr.Expr) bool {
			if c, ok := n.(*expr.ColRef); ok {
				if c.Index >= len(aggSchema) || aggSchema[c.Index].Name != c.Name {
					bad = c
					return false
				}
			}
			return true
		})
		if bad != nil {
			return nil, fmt.Errorf("column %s must appear in GROUP BY or inside an aggregate", bad)
		}
		return out, nil
	}

	outExprs := make([]expr.Expr, len(items))
	for i, it := range items {
		e, err := rewrite(it)
		if err != nil {
			return nil, err
		}
		outExprs[i] = Fold(e)
	}
	var havingRewritten expr.Expr
	if having != nil {
		h, err := rewrite(having)
		if err != nil {
			return nil, err
		}
		havingRewritten = Fold(h)
	}

	var node Node = agg
	if havingRewritten != nil {
		node = &Filter{Child: node, Pred: havingRewritten}
	}
	return &Project{Child: node, Exprs: outExprs, Names: names}, nil
}

// aggSpecFor converts a resolved aggregate FuncCall into an AggSpec.
func aggSpecFor(f *expr.FuncCall) (AggSpec, error) {
	spec := AggSpec{Type: f.Typ, Name: f.String()}
	switch {
	case f.Star:
		spec.Func = AggCountStar
	case f.Name == "count":
		spec.Func, spec.Arg = AggCount, f.Args[0]
	case f.Name == "sum":
		spec.Func, spec.Arg = AggSum, f.Args[0]
	case f.Name == "avg":
		spec.Func, spec.Arg = AggAvg, f.Args[0]
	case f.Name == "stddev":
		spec.Func, spec.Arg = AggStddev, f.Args[0]
	case f.Name == "variance":
		spec.Func, spec.Arg = AggVariance, f.Args[0]
	case f.Name == "min":
		spec.Func, spec.Arg = AggMin, f.Args[0]
	case f.Name == "max":
		spec.Func, spec.Arg = AggMax, f.Args[0]
	default:
		return spec, fmt.Errorf("unknown aggregate %q", f.Name)
	}
	if spec.Arg != nil && expr.IsAggregate(spec.Arg) {
		return spec, fmt.Errorf("nested aggregates are not allowed")
	}
	return spec, nil
}

// resolveOrderBy binds ORDER BY items to output columns: by name/alias or
// by 1-based position. A qualified name binds to the output column that
// carries that table's column; an unqualified name must match one output
// column.
func (b *Builder) resolveOrderBy(items []sql.OrderItem, node Node) ([]SortKey, error) {
	schema := node.Schema()
	quals := node.Quals()
	keys := make([]SortKey, 0, len(items))
	for _, it := range items {
		var col = -1
		switch e := it.Expr.(type) {
		case *expr.Const:
			if e.Val.T == types.Int64 {
				pos := int(e.Val.I)
				if pos < 1 || pos > len(schema) {
					return nil, fmt.Errorf("ORDER BY position %d out of range", pos)
				}
				col = pos - 1
			}
		case *expr.ColRef:
			for i, c := range schema {
				if c.Name != e.Name || (e.Table != "" && !strings.EqualFold(quals[i], e.Table)) {
					continue
				}
				if col >= 0 {
					return nil, fmt.Errorf("ORDER BY %q is ambiguous", e.String())
				}
				col = i
			}
			if col < 0 {
				return nil, fmt.Errorf("ORDER BY: unknown output column %q", e.String())
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("ORDER BY supports output columns and positions, got %s", it.Expr)
		}
		keys = append(keys, SortKey{Col: col, Desc: it.Desc})
	}
	return keys, nil
}
