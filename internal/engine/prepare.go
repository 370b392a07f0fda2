package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

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
// false positives are harmless because a cache hit requires that the exact
// key was previously cached by execSelect.
func isSelectPrefix(key string) bool {
	return len(key) >= 6 && strings.EqualFold(key[:6], "SELECT") ||
		len(key) >= 4 && strings.EqualFold(key[:4], "WITH")
}

// tryCachedSelect is the plan-cache fast path for ad-hoc statement text: when
// text normalizes to a single SELECT whose key holds a valid cached template,
// the statement executes with zero lex/parse/plan work (handled = true). On a
// miss the session is armed (cacheKey + pre-build version stamps) so the
// ordinary path inserts the plan it builds, and handled = false.
//
// It must be called at the top of every statement entry point: it also
// resets the arming fields, so a key from a previous statement that errored
// before reaching execSelect can never mis-file a later plan.
func (s *Session) tryCachedSelect(ctx context.Context, text string) (*Result, bool, error) {
	s.cacheKey, s.cacheDDLVer, s.cacheStatsVer = "", 0, 0
	key, ok := sql.NormalizeStatement(text)
	if !ok || !isSelectPrefix(key) {
		return nil, false, nil
	}
	db := s.db
	ddlVer := db.store.DDLVersion()
	statsVer := db.stats.Version()
	entry, outcome := db.planCache.Get(key, ddlVer, statsVer)
	switch outcome {
	case plancache.Hit:
		if entry.NParams > 0 {
			// A PREPAREd template: raw text containing $N placeholders cannot
			// execute without bound arguments. Let the ordinary path reject it.
			return nil, false, nil
		}
		db.metrics.PlanCacheHits.Add(1)
	case plancache.Invalidated:
		db.metrics.PlanCacheInvalidations.Add(1)
		fallthrough
	case plancache.Miss:
		db.metrics.PlanCacheMisses.Add(1)
		s.cacheKey, s.cacheDDLVer, s.cacheStatsVer = key, ddlVer, statsVer
		return nil, false, nil
	}
	if s.isClosed() {
		return nil, true, errSessionClosed
	}
	s.parseNs = 0
	res, err := s.execLoggedKind(ctx, strings.TrimSpace(text), sql.KindSelect, func(ctx context.Context) (*Result, error) {
		bound, err := plan.Rebind(entry.Plan, s.snapshot(), nil)
		if err != nil {
			return nil, err
		}
		return s.runSelectPlan(ctx, bound)
	})
	return res, true, err
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
func (s *Session) execPrepare(n *sql.Prepare) (*Result, error) {
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
		if _, err := s.cachedPlan(ps); err != nil {
			return nil, err
		}
	}
	if s.prepared == nil {
		s.prepared = map[string]*preparedStmt{}
	}
	s.prepared[n.Name] = ps
	return &Result{}, nil
}

// cachedPlan returns the plan template for a prepared SELECT: from the
// shared cache when its stamped versions are current, otherwise freshly
// built (and cached for the next lookup). The returned template must be
// executed via plan.Rebind, never directly.
func (s *Session) cachedPlan(ps *preparedStmt) (plan.Node, error) {
	db := s.db
	ddlVer := db.store.DDLVersion()
	statsVer := db.stats.Version()
	if ps.key != "" {
		entry, outcome := db.planCache.Get(ps.key, ddlVer, statsVer)
		switch outcome {
		case plancache.Hit:
			if entry.NParams == ps.nParams {
				db.metrics.PlanCacheHits.Add(1)
				return entry.Plan, nil
			}
		case plancache.Invalidated:
			db.metrics.PlanCacheInvalidations.Add(1)
			db.metrics.PlanCacheMisses.Add(1)
		case plancache.Miss:
			db.metrics.PlanCacheMisses.Add(1)
		}
	}
	planStart := time.Now()
	node, err := s.newBuilder().BuildSelect(ps.stmt.(*sql.Select))
	s.planNs += time.Since(planStart).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if ps.key != "" && planCacheable(node) {
		db.planCache.Put(&plancache.Entry{
			Key: ps.key, Plan: node, NParams: ps.nParams,
			DDLVer: ddlVer, StatsVer: statsVer,
		})
	}
	return node, nil
}

// execExecute handles EXECUTE name [(args, ...)]: arguments are constant
// expressions evaluated here and bound to $1..$N.
func (s *Session) execExecute(ctx context.Context, n *sql.Execute) (*Result, error) {
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
	return s.runPrepared(ctx, ps, args)
}

// runPrepared executes a prepared statement with bound argument values.
func (s *Session) runPrepared(ctx context.Context, ps *preparedStmt, args []types.Value) (*Result, error) {
	if ps.class.Kind == sql.KindSelect {
		node, err := s.cachedPlan(ps)
		if err != nil {
			return nil, err
		}
		bound, err := plan.Rebind(node, s.snapshot(), args)
		if err != nil {
			return nil, err
		}
		return s.runSelectPlan(ctx, bound)
	}
	// DML: substitute the arguments into a deep copy of the template, then
	// run it down the ordinary path (the template itself is never mutated).
	st := ps.stmt
	if len(args) > 0 {
		var substErr error
		st = sql.RewriteExprs(ps.stmt, func(e expr.Expr) expr.Expr {
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
	return s.execStatement(ctx, st)
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
	if s.isClosed() {
		return nil, errSessionClosed
	}
	ps, ok := s.prepared[name]
	if !ok {
		return nil, s.abortOnError(fmt.Errorf("prepared statement %q does not exist", name))
	}
	if len(args) != ps.nParams {
		return nil, s.abortOnError(fmt.Errorf("prepared statement %q expects %d argument(s), got %d", name, ps.nParams, len(args)))
	}
	s.parseNs = 0
	res, err := s.execLoggedKind(ctx, "EXECUTE "+name, ps.class.Kind, func(ctx context.Context) (*Result, error) {
		return s.runPrepared(ctx, ps, args)
	})
	if err != nil {
		return nil, s.abortOnError(err)
	}
	return res, nil
}
