package engine

import (
	"context"
	"fmt"
	"strings"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/plancache"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

// preparedStmt is one PREPAREd statement held by a session. The template AST
// is immutable after PREPARE (EXECUTE works on copies), so the same prepared
// statement can be executed any number of times.
type preparedStmt struct {
	name    string
	stmt    sql.Statement // template AST; $N params carry declared types
	class   sql.Class     // of stmt, decided once at PREPARE
	text    string        // inner statement source text (for re-PREPARE, display)
	key     string        // normalized plan-cache key; "" = uncacheable text
	nParams int
}

// isSelectPrefix reports whether a normalized statement key can only be a
// SELECT (possibly WITH-prefixed). False negatives just skip the cache;
// false positives only cost a parse error, which runs nothing.
func isSelectPrefix(key string) bool {
	return len(key) >= 6 && strings.EqualFold(key[:6], "SELECT") ||
		len(key) >= 4 && strings.EqualFold(key[:4], "WITH")
}

// cachedPlan is the one plan-cache protocol, shared by ad-hoc SELECT text
// and prepared SELECTs. It returns the template cached under key for a
// statement with nParams placeholders when that template was built against
// the current catalog and statistics. Otherwise it builds the SELECT that
// parse returns and caches it, stamped with the two versions read before
// the lookup — so a DDL or ANALYZE racing the build leaves an entry that is
// already stale and dies at its next lookup instead of being served. Each
// call counts one hit, or one miss (plus an invalidation when a stale entry
// was dropped). Run the template with runPlan, never directly.
func (s *Session) cachedPlan(st *stmt, key string, nParams int, parse func() (*sql.Select, error)) (plan.Node, error) {
	db := s.db
	ddlVer, statsVer := db.store.DDLVersion(), db.stats.Version()
	entry, outcome := db.planCache.Get(key, ddlVer, statsVer)
	// A $N-bearing template only serves the statement it was prepared for;
	// the same text run ad hoc misses, and its build rejects the $N.
	if outcome == plancache.Hit && entry.NParams == nParams {
		db.metrics.PlanCacheHits.Add(1)
		return entry.Plan, nil
	}
	if outcome == plancache.Invalidated {
		db.metrics.PlanCacheInvalidations.Add(1)
	}
	db.metrics.PlanCacheMisses.Add(1)
	sel, err := parse()
	if err != nil {
		return nil, err
	}
	node, err := s.buildSelect(st, sel)
	if err != nil {
		return nil, err
	}
	if planCacheable(node) {
		db.planCache.Put(&plancache.Entry{
			Key: key, Plan: node, NParams: nParams, DDLVer: ddlVer, StatsVer: statsVer,
		})
	}
	return node, nil
}

// planCacheable reports whether a built plan may live in the shared cache.
// Plans scanning a system.* virtual table embed a batch materialized at
// build time, so caching them would serve stale point-in-time rows forever.
func planCacheable(n plan.Node) bool {
	if sc, ok := n.(*plan.Scan); ok {
		if _, mem := sc.Rel.(*memRelation); mem {
			return false
		}
	}
	for _, c := range n.Children() {
		if !planCacheable(c) {
			return false
		}
	}
	return true
}

// execPrepare handles PREPARE name [(TYPE, ...)] AS <stmt>.
func (s *Session) execPrepare(st *stmt, n *sql.Prepare) (*Result, error) {
	if _, exists := s.prepared[n.Name]; exists {
		return nil, fmt.Errorf("prepared statement %q already exists", n.Name)
	}
	nParams, err := sql.NumParams(n.Stmt)
	if err != nil {
		return nil, err
	}
	if len(n.Types) > nParams {
		return nil, fmt.Errorf("PREPARE %s declares %d parameter type(s) but the statement only uses %d", n.Name, len(n.Types), nParams)
	}
	// Stamp the declared types onto the placeholder nodes; undeclared
	// parameters stay Unknown and rely on inference during resolution.
	if len(n.Types) > 0 {
		sql.WalkExprs(n.Stmt, func(root expr.Expr) {
			expr.Walk(root, func(e expr.Expr) bool {
				if p, ok := e.(*expr.Param); ok && p.Idx >= 1 && p.Idx <= len(n.Types) {
					p.Typ = n.Types[p.Idx-1]
				}
				return true
			})
		})
	}
	ps := &preparedStmt{name: n.Name, stmt: n.Stmt, class: sql.Classify(n.Stmt), text: n.Text, nParams: nParams}
	if key, ok := sql.NormalizeStatement(n.Text); ok {
		ps.key = key
	}
	if ps.class.Kind == sql.KindSelect {
		// Build eagerly: names and parameter types are validated at PREPARE
		// time (PostgreSQL-style), and the plan template is already cached
		// when the first EXECUTE arrives.
		if _, err := s.preparedPlan(st, ps); err != nil {
			return nil, err
		}
	}
	if s.prepared == nil {
		s.prepared = map[string]*preparedStmt{}
	}
	s.prepared[n.Name] = ps
	return &Result{}, nil
}

// preparedPlan returns the plan template of a prepared SELECT.
func (s *Session) preparedPlan(st *stmt, ps *preparedStmt) (plan.Node, error) {
	return s.cachedPlan(st, ps.key, ps.nParams, func() (*sql.Select, error) {
		return ps.stmt.(*sql.Select), nil
	})
}

// execExecute handles EXECUTE name [(args, ...)]: arguments are constant
// expressions evaluated here and bound to $1..$N.
func (s *Session) execExecute(ctx context.Context, st *stmt, n *sql.Execute) (*Result, error) {
	ps, ok := s.prepared[n.Name]
	if !ok {
		return nil, fmt.Errorf("prepared statement %q does not exist", n.Name)
	}
	if len(n.Args) != ps.nParams {
		return nil, fmt.Errorf("prepared statement %q expects %d argument(s), got %d", n.Name, ps.nParams, len(n.Args))
	}
	args := make([]types.Value, len(n.Args))
	for i, ae := range n.Args {
		re, err := expr.Resolve(ae, expr.NewResolveCtx(nil, ""))
		if err != nil {
			return nil, fmt.Errorf("EXECUTE %s argument %d: %w", n.Name, i+1, err)
		}
		v, err := expr.EvalConst(re)
		if err != nil {
			return nil, fmt.Errorf("EXECUTE %s argument %d: %w", n.Name, i+1, err)
		}
		args[i] = v
	}
	return s.runPrepared(ctx, st, ps, args)
}

// runPrepared executes a prepared statement with bound argument values.
func (s *Session) runPrepared(ctx context.Context, st *stmt, ps *preparedStmt, args []types.Value) (*Result, error) {
	if ps.class.Kind == sql.KindSelect {
		tmpl, err := s.preparedPlan(st, ps)
		if err != nil {
			return nil, err
		}
		return s.runSelect(ctx, st, tmpl, args)
	}
	// DML: substitute the arguments into a deep copy of the template, then
	// run it down the ordinary path (the template itself is never mutated).
	ast := ps.stmt
	if len(args) > 0 {
		var substErr error
		ast = sql.RewriteExprs(ps.stmt, func(e expr.Expr) expr.Expr {
			p, ok := e.(*expr.Param)
			if !ok {
				return e
			}
			if p.Idx < 1 || p.Idx > len(args) {
				if substErr == nil {
					substErr = fmt.Errorf("no argument bound for parameter $%d", p.Idx)
				}
				return e
			}
			return &expr.Const{Val: args[p.Idx-1]}
		})
		if substErr != nil {
			return nil, substErr
		}
	}
	return s.execStatement(ctx, st, ast)
}

// execDeallocate handles DEALLOCATE name | ALL.
func (s *Session) execDeallocate(n *sql.Deallocate) (*Result, error) {
	if n.All {
		s.prepared = nil
		return &Result{}, nil
	}
	if _, ok := s.prepared[n.Name]; !ok {
		return nil, fmt.Errorf("prepared statement %q does not exist", n.Name)
	}
	delete(s.prepared, n.Name)
	return &Result{}, nil
}

// Prepared returns the names of this session's prepared statements, in no
// particular order.
func (s *Session) Prepared() []string {
	out := make([]string, 0, len(s.prepared))
	for name := range s.prepared {
		out = append(out, name)
	}
	return out
}

// ExecutePrepared runs a previously PREPAREd statement with args bound to
// $1..$N, with full statement telemetry. It is the programmatic equivalent
// of EXECUTE: the network server's Bind frames route here so repeated
// executions skip SQL text entirely.
func (s *Session) ExecutePrepared(ctx context.Context, name string, args []types.Value) (*Result, error) {
	res, err := s.executePrepared(ctx, name, args)
	if err != nil {
		return nil, s.abortOnError(err)
	}
	return res, nil
}

func (s *Session) executePrepared(ctx context.Context, name string, args []types.Value) (*Result, error) {
	if err := s.ready(ctx); err != nil {
		return nil, err
	}
	ps, ok := s.prepared[name]
	if !ok {
		return nil, fmt.Errorf("prepared statement %q does not exist", name)
	}
	if len(args) != ps.nParams {
		return nil, fmt.Errorf("prepared statement %q expects %d argument(s), got %d", name, ps.nParams, len(args))
	}
	st := s.newStmt(0)
	return s.execLogged(ctx, st, "EXECUTE "+name, ps.class.Kind, func(ctx context.Context) (*Result, error) {
		return s.runPrepared(ctx, st, ps, args)
	})
}
