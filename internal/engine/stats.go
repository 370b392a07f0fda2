package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lambdadb/internal/plan"
	"lambdadb/internal/sql"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// statsRegistry holds the ANALYZE-collected table statistics and implements
// plan.StatsProvider for the session planners. Stats are refreshed by
// ANALYZE, re-collected for analyzed tables at CHECKPOINT, and dropped with
// their table.
type statsRegistry struct {
	mu sync.RWMutex
	m  map[string]*plan.TableStats
	// version counts every statistics change (ANALYZE, CHECKPOINT refresh,
	// drop-with-table). Plan-cache entries are stamped with it: a stats
	// change means a cached plan may no longer be the plan the optimizer
	// would pick, so it must be rebuilt.
	version atomic.Uint64
}

func (r *statsRegistry) Version() uint64 { return r.version.Load() }

func (r *statsRegistry) TableStats(table string) (*plan.TableStats, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts, ok := r.m[table]
	return ts, ok
}

func (r *statsRegistry) put(ts *plan.TableStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[ts.Table] = ts
	r.version.Add(1)
}

func (r *statsRegistry) drop(table string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, table)
	r.version.Add(1)
}

// tables returns the analyzed table names, sorted.
func (r *statsRegistry) tables() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for t := range r.m {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// analyzeTable collects and registers statistics for one table at the
// given snapshot.
func (db *DB) analyzeTable(name string, snapshot uint64) (*plan.TableStats, error) {
	tbl, err := db.store.Table(name)
	if err != nil {
		return nil, err
	}
	ts := plan.CollectTableStats(tbl, snapshot)
	db.stats.put(ts)
	db.metrics.AnalyzeRuns.Add(1)
	return ts, nil
}

// refreshStats re-collects statistics for every previously analyzed table
// (dropped tables fall out of the registry). Called after CHECKPOINT so
// long-running durable databases keep their estimates fresh.
func (db *DB) refreshStats() {
	snap := db.store.Snapshot()
	for _, name := range db.stats.tables() {
		if _, err := db.analyzeTable(name, snap); err != nil {
			db.stats.drop(name)
		}
	}
}

// execAnalyze runs ANALYZE [table]: one table, or every stored table.
func (s *Session) execAnalyze(n *sql.Analyze) (*Result, error) {
	snap := s.snapshot()
	names := []string{n.Table}
	if n.Table == "" {
		names = s.db.store.TableNames()
		sort.Strings(names)
	}
	var rows [][]types.Value
	for _, name := range names {
		ts, err := s.db.analyzeTable(name, snap)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []types.Value{types.NewString(name), types.NewInt(ts.RowCount)})
	}
	return rowResult([]string{"table", "rows"}, []types.Type{types.String, types.Int64}, rows), nil
}

// indexKindFromSQL maps the parsed USING spelling to the storage kind;
// the default is ordered (it serves both point and range probes).
func indexKindFromSQL(kind string) (storage.IndexKind, error) {
	switch kind {
	case "", "ORDERED":
		return storage.OrderedIndex, nil
	case "HASH":
		return storage.HashIndex, nil
	}
	return 0, fmt.Errorf("unknown index kind %q", kind)
}

func (s *Session) execCreateIndex(n *sql.CreateIndex) (*Result, error) {
	if n.IfNotExists && s.db.store.HasIndex(n.Name) {
		return &Result{}, nil
	}
	kind, err := indexKindFromSQL(n.Kind)
	if err != nil {
		return nil, err
	}
	err = s.db.store.CreateIndex(storage.IndexDef{
		Name: n.Name, Table: n.Table, Column: n.Column, Kind: kind,
	})
	return &Result{}, err
}

func (s *Session) execDropIndex(n *sql.DropIndex) (*Result, error) {
	if n.IfExists && !s.db.store.HasIndex(n.Name) {
		return &Result{}, nil
	}
	return &Result{}, s.db.store.DropIndex(n.Name)
}
