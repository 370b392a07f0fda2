// Package plan implements the logical query planner: translation of parsed
// SQL into a tree of logical operators, name resolution, and rule-based
// optimization (constant folding, predicate pushdown, build-side choice).
//
// Analytical operators (k-Means, PageRank, Naive Bayes) and the paper's
// ITERATE construct are first-class plan nodes, so the optimizer sees them
// exactly as Figure 3 of the paper describes: one plan mixing relational
// and analytical operators.
package plan

import (
	"fmt"
	"strings"

	"lambdadb/internal/catalog"
	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// Node is a logical plan operator.
type Node interface {
	// Schema is the output column layout.
	Schema() types.Schema
	// Quals returns the table qualifier of each output column ("" if none);
	// used when resolving references in enclosing scopes.
	Quals() []string
	// Card estimates output cardinality (rows).
	Card() float64
	// Children returns input plans.
	Children() []Node
	// Explain renders one line describing this node.
	Explain() string
}

// Scan reads a stored table, at the snapshot the executing statement reads
// at. EstRows is the table's row count at the snapshot the plan was built
// at: the estimate every cost decision about the scan used.
type Scan struct {
	Rel     catalog.Relation
	Alias   string
	EstRows float64
}

// NewScan builds a full-table scan, counting the rows visible at snapshot
// once for its estimate.
func NewScan(rel catalog.Relation, alias string, snapshot uint64) *Scan {
	if alias == "" {
		alias = rel.Name()
	}
	return &Scan{Rel: rel, Alias: alias, EstRows: float64(rel.NumRows(snapshot))}
}

func (s *Scan) Schema() types.Schema { return s.Rel.Schema() }
func (s *Scan) Quals() []string      { return uniformQuals(len(s.Rel.Schema()), s.Alias) }
func (s *Scan) Card() float64        { return s.EstRows }
func (s *Scan) Children() []Node     { return nil }
func (s *Scan) Explain() string      { return fmt.Sprintf("Scan %s", s.Alias) }

// refQuals gives each bare column reference among exprs its child's
// qualifier, so that ORDER BY t.col finds a column of t that a projection
// or a GROUP BY key passes through; the other output columns (n in all)
// have none.
func refQuals(exprs []expr.Expr, n int, child Node) []string {
	src, out := child.Quals(), make([]string, n)
	for i, e := range exprs {
		if c, ok := e.(*expr.ColRef); ok {
			out[i] = src[c.Index]
		}
	}
	return out
}

func uniformQuals(n int, q string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = q
	}
	return out
}

// IndexScan probes a secondary index instead of scanning the table: either
// an equality probe (Eq set) or a range probe (Lo/Hi bounds, nil =
// unbounded). The output schema is the full table schema — residual
// predicate work stays in a Filter above. Chosen by OptimizeAccess when the
// estimated selectivity clears the threshold.
type IndexScan struct {
	Rel    catalog.IndexedRelation
	Alias  string
	Index  string // index name
	Column string // indexed column (display)
	Kind   string // "HASH" or "ORDERED" (display)

	Eq           *types.Value // equality probe key; nil for range probes
	Lo, Hi       *types.Value // range bounds; nil = unbounded
	LoInc, HiInc bool

	// EqParam, when > 0, marks an equality probe against parameter $EqParam
	// of a prepared statement: the executor reads the key from the
	// statement's arguments, coerced to the indexed column's type.
	EqParam int

	EstRows float64
}

func (s *IndexScan) Schema() types.Schema { return s.Rel.Schema() }
func (s *IndexScan) Quals() []string      { return uniformQuals(len(s.Rel.Schema()), s.Alias) }
func (s *IndexScan) Card() float64        { return s.EstRows }
func (s *IndexScan) Children() []Node     { return nil }
func (s *IndexScan) Explain() string {
	return fmt.Sprintf("IndexScan %s using %s (%s) est=%.0f", s.Alias, s.Index, s.probeString(), s.EstRows)
}

// probeString renders the probe condition, e.g. "id = 42" or
// "10 <= ts < 20".
func (s *IndexScan) probeString() string {
	if s.Eq != nil {
		return fmt.Sprintf("%s = %s", s.Column, s.Eq)
	}
	if s.EqParam > 0 {
		return fmt.Sprintf("%s = $%d", s.Column, s.EqParam)
	}
	var sb strings.Builder
	if s.Lo != nil {
		op := "<"
		if s.LoInc {
			op = "<="
		}
		fmt.Fprintf(&sb, "%s %s ", s.Lo, op)
	}
	sb.WriteString(s.Column)
	if s.Hi != nil {
		op := "<"
		if s.HiInc {
			op = "<="
		}
		fmt.Fprintf(&sb, " %s %s", op, s.Hi)
	}
	return sb.String()
}

// WorkingScan reads the current working table of an enclosing ITERATE or
// recursive CTE, identified by name. The executor resolves it through its
// binding context.
type WorkingScan struct {
	Name    string
	Sch     types.Schema
	Alias   string
	CardEst float64
}

func (w *WorkingScan) Schema() types.Schema { return w.Sch }
func (w *WorkingScan) Quals() []string {
	q := w.Alias
	if q == "" {
		q = w.Name
	}
	return uniformQuals(len(w.Sch), q)
}
func (w *WorkingScan) Card() float64    { return w.CardEst }
func (w *WorkingScan) Children() []Node { return nil }
func (w *WorkingScan) Explain() string  { return fmt.Sprintf("WorkingScan %s", w.Name) }

// Values produces literal rows.
type Values struct {
	Sch  types.Schema
	Rows [][]types.Value
}

func (v *Values) Schema() types.Schema { return v.Sch }
func (v *Values) Quals() []string      { return uniformQuals(len(v.Sch), "") }
func (v *Values) Card() float64        { return float64(len(v.Rows)) }
func (v *Values) Children() []Node     { return nil }
func (v *Values) Explain() string      { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// Filter keeps rows satisfying a boolean predicate.
type Filter struct {
	Child Node
	Pred  expr.Expr
	// Sel, when > 0, is a statistics-derived selectivity set by
	// OptimizeAccess; it overrides the shape heuristic in Card.
	Sel float64
}

func (f *Filter) Schema() types.Schema { return f.Child.Schema() }
func (f *Filter) Quals() []string      { return f.Child.Quals() }
func (f *Filter) Card() float64 {
	s := f.Sel
	if s <= 0 {
		s = selectivity(f.Pred)
	}
	return f.Child.Card() * s
}
func (f *Filter) Children() []Node { return []Node{f.Child} }
func (f *Filter) Explain() string  { return fmt.Sprintf("Filter %s", f.Pred) }

// selectivity is a coarse textbook heuristic keyed on the predicate shape.
func selectivity(e expr.Expr) float64 {
	switch n := e.(type) {
	case *expr.BinOp:
		switch n.Op {
		case expr.OpEq:
			return 0.1
		case expr.OpAnd:
			return selectivity(n.L) * selectivity(n.R)
		case expr.OpOr:
			s := selectivity(n.L) + selectivity(n.R)
			if s > 1 {
				s = 1
			}
			return s
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return 0.3
		case expr.OpNe:
			return 0.9
		}
	}
	return 0.5
}

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string
}

func (p *Project) Schema() types.Schema {
	out := make(types.Schema, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = types.ColumnInfo{Name: p.Names[i], Type: e.Type()}
	}
	return out
}
func (p *Project) Quals() []string  { return refQuals(p.Exprs, len(p.Exprs), p.Child) }
func (p *Project) Card() float64    { return p.Child.Card() }
func (p *Project) Children() []Node { return []Node{p.Child} }
func (p *Project) Explain() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinType mirrors sql join types at the plan level.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	CrossJoin
)

func (t JoinType) String() string {
	switch t {
	case LeftJoin:
		return "LeftJoin"
	case CrossJoin:
		return "CrossJoin"
	default:
		return "InnerJoin"
	}
}

// Join combines two inputs; NewJoin builds one from its condition. The
// executor indexes the blocking side on the key columns — with none, every
// row is a partner of every streamed row — and applies Residual to the
// candidate pairs.
type Join struct {
	Type      JoinType
	L, R      Node
	On        expr.Expr // full condition (resolved against concat schema)
	EquiLeft  []int     // key column indices in L's schema
	EquiRight []int     // key column indices in R's schema
	Residual  expr.Expr // non-equi remainder, may be nil
	// BuildRight: an inner join with keys builds on R, not L. Only the
	// optimizer sets it (chooseBuildSide), to build on the smaller input.
	BuildRight bool
}

func (j *Join) Schema() types.Schema {
	return append(append(types.Schema{}, j.L.Schema()...), j.R.Schema()...)
}
func (j *Join) Quals() []string {
	return append(append([]string{}, j.L.Quals()...), j.R.Quals()...)
}
func (j *Join) Card() float64 {
	l, r := j.L.Card(), j.R.Card()
	switch {
	case j.Type == CrossJoin:
		return l * r
	case len(j.EquiLeft) > 0:
		// Equi join: assume key uniqueness on the smaller side.
		if l > r {
			return l
		}
		return r
	default:
		return l * r * 0.1
	}
}
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// BlockingLeft reports which input the executor materialises before the
// other streams past it: the left of an inner join with keys unless
// BuildRight is set, else the right — a left-outer join must probe with its
// left, and a join without keys streams its left past every row of its
// right.
func (j *Join) BlockingLeft() bool {
	return j.Type == InnerJoin && len(j.EquiLeft) > 0 && !j.BuildRight
}

// Sides returns the join's blocking and streaming inputs.
func (j *Join) Sides() (blocking, streaming Node) {
	if j.BlockingLeft() {
		return j.L, j.R
	}
	return j.R, j.L
}
func (j *Join) Explain() string {
	s := j.Type.String()
	if j.On != nil {
		s += fmt.Sprintf(" on %s", j.On)
	}
	if j.BuildRight {
		s += " build=right"
	}
	return s
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
	AggStddev
	AggVariance
)

var aggNames = map[AggFunc]string{
	AggCount: "count", AggCountStar: "count(*)", AggSum: "sum",
	AggAvg: "avg", AggMin: "min", AggMax: "max",
	AggStddev: "stddev", AggVariance: "variance",
}

func (f AggFunc) String() string { return aggNames[f] }

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // nil for count(*)
	Type types.Type
	Name string
}

// Aggregate groups by key expressions and computes aggregates. Output
// columns are the keys followed by the aggregates. Global aggregation has
// no keys and produces exactly one row.
type Aggregate struct {
	Child    Node
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggSpec
}

func (a *Aggregate) Schema() types.Schema {
	out := make(types.Schema, 0, len(a.Keys)+len(a.Aggs))
	for i, k := range a.Keys {
		out = append(out, types.ColumnInfo{Name: a.KeyNames[i], Type: k.Type()})
	}
	for _, g := range a.Aggs {
		out = append(out, types.ColumnInfo{Name: g.Name, Type: g.Type})
	}
	return out
}
func (a *Aggregate) Quals() []string { return refQuals(a.Keys, len(a.Keys)+len(a.Aggs), a.Child) }
func (a *Aggregate) Card() float64 {
	if len(a.Keys) == 0 {
		return 1
	}
	c := a.Child.Card() / 10
	if c < 1 {
		c = 1
	}
	return c
}
func (a *Aggregate) Children() []Node { return []Node{a.Child} }
func (a *Aggregate) Explain() string {
	return fmt.Sprintf("Aggregate keys=%d aggs=%d", len(a.Keys), len(a.Aggs))
}

// Sort orders rows. TopK, when non-negative, bounds the output: the
// executor keeps only the best TopK rows in a bounded heap instead of
// sorting everything (fused from Limit-over-Sort by the optimizer).
type Sort struct {
	Child Node
	Keys  []SortKey
	TopK  int64 // -1 = full sort
}

// SortKey is one ORDER BY item, referencing an output column by index.
type SortKey struct {
	Col  int
	Desc bool
}

func (s *Sort) Schema() types.Schema { return s.Child.Schema() }
func (s *Sort) Quals() []string      { return s.Child.Quals() }
func (s *Sort) Card() float64 {
	c := s.Child.Card()
	if s.TopK >= 0 && float64(s.TopK) < c {
		return float64(s.TopK)
	}
	return c
}
func (s *Sort) Children() []Node { return []Node{s.Child} }
func (s *Sort) Explain() string {
	if s.TopK >= 0 {
		return fmt.Sprintf("TopK %d %v", s.TopK, s.Keys)
	}
	return fmt.Sprintf("Sort %v", s.Keys)
}

// Limit caps the output, after skipping Offset rows.
type Limit struct {
	Child  Node
	N      int64 // -1 = unlimited
	Offset int64
}

func (l *Limit) Schema() types.Schema { return l.Child.Schema() }
func (l *Limit) Quals() []string      { return l.Child.Quals() }
func (l *Limit) Card() float64 {
	c := l.Child.Card()
	if l.N >= 0 && float64(l.N) < c {
		return float64(l.N)
	}
	return c
}
func (l *Limit) Children() []Node { return []Node{l.Child} }
func (l *Limit) Explain() string  { return fmt.Sprintf("Limit %d offset %d", l.N, l.Offset) }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

func (d *Distinct) Schema() types.Schema { return d.Child.Schema() }
func (d *Distinct) Quals() []string      { return d.Child.Quals() }
func (d *Distinct) Card() float64        { return d.Child.Card() * 0.5 }
func (d *Distinct) Children() []Node     { return []Node{d.Child} }
func (d *Distinct) Explain() string      { return "Distinct" }

// Union concatenates two inputs; without All, duplicates are removed.
type Union struct {
	L, R Node
	All  bool
}

func (u *Union) Schema() types.Schema { return u.L.Schema() }
func (u *Union) Quals() []string      { return uniformQuals(len(u.L.Schema()), "") }
func (u *Union) Card() float64        { return u.L.Card() + u.R.Card() }
func (u *Union) Children() []Node     { return []Node{u.L, u.R} }
func (u *Union) Explain() string {
	if u.All {
		return "UnionAll"
	}
	return "Union"
}

// RecursiveCTE implements SQL:1999 appending fixpoint recursion:
// result = Init; repeat { delta = Rec(working); result += delta } until the
// recursive term adds nothing new (or, for UNION ALL, yields no rows).
type RecursiveCTE struct {
	Name     string
	Init     Node
	Rec      Node // references Name through WorkingScan
	All      bool // UNION ALL vs UNION semantics
	MaxDepth int  // safety bound against infinite recursion
}

func (r *RecursiveCTE) Schema() types.Schema { return r.Init.Schema() }
func (r *RecursiveCTE) Quals() []string      { return uniformQuals(len(r.Init.Schema()), r.Name) }
func (r *RecursiveCTE) Card() float64        { return r.Init.Card() * 10 }
func (r *RecursiveCTE) Children() []Node     { return []Node{r.Init, r.Rec} }
func (r *RecursiveCTE) Explain() string      { return fmt.Sprintf("RecursiveCTE %s", r.Name) }

// Iterate is the paper's non-appending iteration operator (Section 5.1):
// working = Init; while Stop(working) yields no rows { working =
// Step(working) }. The final result is the last working table only.
type Iterate struct {
	Init Node
	Step Node // references the working table as `iterate`
	Stop Node // references the working table as `iterate`
	// MaxDepth bounds runaway iterations (the paper notes both iterate and
	// recursive CTEs can loop forever and must be cut off by the system).
	MaxDepth int
}

func (i *Iterate) Schema() types.Schema { return i.Init.Schema() }
func (i *Iterate) Quals() []string      { return uniformQuals(len(i.Init.Schema()), "iterate") }
func (i *Iterate) Card() float64        { return i.Init.Card() }
func (i *Iterate) Children() []Node     { return []Node{i.Init, i.Step, i.Stop} }
func (i *Iterate) Explain() string      { return "Iterate" }

// KMeans is the physical clustering operator (paper Section 6.1),
// parameterized by a distance lambda (Section 7). Output: cluster id
// followed by the center coordinates, one row per cluster.
type KMeans struct {
	Data     Node
	Centers  Node
	Lambda   *expr.Lambda // nil = default squared Euclidean distance
	MaxIter  int
	OutNames []string // coordinate column names (from Data's schema)
}

func (k *KMeans) Schema() types.Schema {
	out := types.Schema{{Name: "cluster", Type: types.Int64}}
	for _, n := range k.OutNames {
		out = append(out, types.ColumnInfo{Name: n, Type: types.Float64})
	}
	return out
}
func (k *KMeans) Quals() []string  { return uniformQuals(len(k.OutNames)+1, "") }
func (k *KMeans) Card() float64    { return k.Centers.Card() }
func (k *KMeans) Children() []Node { return []Node{k.Data, k.Centers} }
func (k *KMeans) Explain() string {
	if k.Lambda != nil {
		return fmt.Sprintf("KMeans maxiter=%d dist=%s", k.MaxIter, k.Lambda)
	}
	return fmt.Sprintf("KMeans maxiter=%d", k.MaxIter)
}

// KMeansAssign applies cluster centers to data tuples: each input row is
// emitted with the id of its nearest center appended — the "apply the
// model" half of the paper's model-application pattern, sharing the
// k-Means distance variation point (and its lambda).
type KMeansAssign struct {
	Data    Node
	Centers Node
	Lambda  *expr.Lambda // nil = default squared Euclidean distance
}

func (k *KMeansAssign) Schema() types.Schema {
	out := append(types.Schema{}, k.Data.Schema()...)
	return append(out, types.ColumnInfo{Name: "cluster", Type: types.Int64})
}
func (k *KMeansAssign) Quals() []string  { return uniformQuals(len(k.Data.Schema())+1, "") }
func (k *KMeansAssign) Card() float64    { return k.Data.Card() }
func (k *KMeansAssign) Children() []Node { return []Node{k.Data, k.Centers} }
func (k *KMeansAssign) Explain() string {
	if k.Lambda != nil {
		return fmt.Sprintf("KMeansAssign dist=%s", k.Lambda)
	}
	return "KMeansAssign"
}

// PageRank is the physical graph-ranking operator (paper Section 6.3).
// Output: (vertex BIGINT, rank DOUBLE). Lambda, when set, computes a
// per-edge weight from the edge tuple (Section 7: "define edge weights in
// PageRank"); rank mass then flows proportionally to edge weights.
type PageRank struct {
	Edges   Node
	Damping float64
	Epsilon float64
	MaxIter int
	Lambda  *expr.Lambda
}

func (p *PageRank) Schema() types.Schema {
	return types.Schema{{Name: "vertex", Type: types.Int64}, {Name: "rank", Type: types.Float64}}
}
func (p *PageRank) Quals() []string  { return uniformQuals(2, "") }
func (p *PageRank) Card() float64    { return p.Edges.Card() / 10 }
func (p *PageRank) Children() []Node { return []Node{p.Edges} }
func (p *PageRank) Explain() string {
	if p.Lambda != nil {
		return fmt.Sprintf("PageRank d=%g eps=%g maxiter=%d weight=%s", p.Damping, p.Epsilon, p.MaxIter, p.Lambda)
	}
	return fmt.Sprintf("PageRank d=%g eps=%g maxiter=%d", p.Damping, p.Epsilon, p.MaxIter)
}

// NaiveBayesTrain builds a Gaussian Naive Bayes model (paper Section 6.2).
// The input's last column is the class label; the rest are features.
// Output: (label, feature, prior, mean, stddev).
type NaiveBayesTrain struct {
	Data Node
}

// NBModelSchema is the relational representation of a Naive Bayes model.
var NBModelSchema = types.Schema{
	{Name: "label", Type: types.Int64},
	{Name: "feature", Type: types.Int64},
	{Name: "prior", Type: types.Float64},
	{Name: "mean", Type: types.Float64},
	{Name: "stddev", Type: types.Float64},
}

func (n *NaiveBayesTrain) Schema() types.Schema { return NBModelSchema }
func (n *NaiveBayesTrain) Quals() []string      { return uniformQuals(len(NBModelSchema), "") }
func (n *NaiveBayesTrain) Card() float64        { return 2 * float64(len(n.Data.Schema())-1) }
func (n *NaiveBayesTrain) Children() []Node     { return []Node{n.Data} }
func (n *NaiveBayesTrain) Explain() string      { return "NaiveBayesTrain" }

// NaiveBayesPredict applies a trained model to feature rows, appending the
// predicted label column.
type NaiveBayesPredict struct {
	Model Node
	Data  Node
}

func (n *NaiveBayesPredict) Schema() types.Schema {
	out := append(types.Schema{}, n.Data.Schema()...)
	return append(out, types.ColumnInfo{Name: "label", Type: types.Int64})
}
func (n *NaiveBayesPredict) Quals() []string  { return uniformQuals(len(n.Data.Schema())+1, "") }
func (n *NaiveBayesPredict) Card() float64    { return n.Data.Card() }
func (n *NaiveBayesPredict) Children() []Node { return []Node{n.Model, n.Data} }
func (n *NaiveBayesPredict) Explain() string  { return "NaiveBayesPredict" }

// mapChildren replaces every child of n with fn(child), in place and in
// Children() order. It is the one place that names each node type's child
// fields: the optimizer passes all rewrite plans through it, so a new node
// type is wired into every pass by one case here. Leaves and node types it
// does not know are left alone.
func mapChildren(n Node, fn func(Node) Node) {
	switch t := n.(type) {
	case *Filter:
		t.Child = fn(t.Child)
	case *Project:
		t.Child = fn(t.Child)
	case *Alias:
		t.Child = fn(t.Child)
	case *Shared:
		t.Child = fn(t.Child)
	case *Join:
		t.L, t.R = fn(t.L), fn(t.R)
	case *Aggregate:
		t.Child = fn(t.Child)
	case *Sort:
		t.Child = fn(t.Child)
	case *Limit:
		t.Child = fn(t.Child)
	case *Distinct:
		t.Child = fn(t.Child)
	case *Union:
		t.L, t.R = fn(t.L), fn(t.R)
	case *RecursiveCTE:
		t.Init, t.Rec = fn(t.Init), fn(t.Rec)
	case *Iterate:
		t.Init, t.Step, t.Stop = fn(t.Init), fn(t.Step), fn(t.Stop)
	case *KMeans:
		t.Data, t.Centers = fn(t.Data), fn(t.Centers)
	case *KMeansAssign:
		t.Data, t.Centers = fn(t.Data), fn(t.Centers)
	case *PageRank:
		t.Edges = fn(t.Edges)
	case *NaiveBayesTrain:
		t.Data = fn(t.Data)
	case *NaiveBayesPredict:
		t.Model, t.Data = fn(t.Model), fn(t.Data)
	}
}

// ExplainTree renders a plan as an indented tree.
func ExplainTree(n Node) string {
	var sb strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Explain())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}
