package engine

import (
	"sort"
	"time"

	"lambdadb/internal/catalog"
	"lambdadb/internal/types"
)

// systemCatalog decorates the store's catalog with the virtual tables
// system.query_log and system.metrics. Virtual tables materialize their
// rows at resolve time (plan build), so a statement never observes its own
// log entry and scans are stable for the statement's lifetime.
type systemCatalog struct {
	db *DB
}

func (c systemCatalog) Resolve(name string) (catalog.Relation, error) {
	switch name {
	case "system.query_log":
		return c.queryLogRelation(), nil
	case "system.metrics":
		return c.metricsRelation(), nil
	case "system.table_stats":
		return c.tableStatsRelation(), nil
	case "system.indexes":
		return c.indexesRelation(), nil
	case "system.replication":
		return c.replicationRelation(), nil
	case "system.plan_cache":
		return c.planCacheRelation(), nil
	}
	return c.db.store.Resolve(name)
}

// tableStatsRelation exposes the ANALYZE-collected per-column statistics.
func (c systemCatalog) tableStatsRelation() *memRelation {
	schema := types.Schema{
		{Name: "table_name", Type: types.String},
		{Name: "column_name", Type: types.String},
		{Name: "row_count", Type: types.Int64},
		{Name: "null_count", Type: types.Int64},
		{Name: "ndv", Type: types.Int64},
		{Name: "min", Type: types.String},
		{Name: "max", Type: types.String},
		{Name: "hist_buckets", Type: types.Int64},
		{Name: "snapshot", Type: types.Int64},
	}
	b := types.NewBatch(schema)
	for _, name := range c.db.stats.tables() {
		ts, ok := c.db.stats.TableStats(name)
		if !ok {
			continue
		}
		for _, cs := range ts.Cols {
			b.AppendRow([]types.Value{
				types.NewString(ts.Table),
				types.NewString(cs.Name),
				types.NewInt(ts.RowCount),
				types.NewInt(cs.NullCount),
				types.NewInt(cs.NDV),
				types.NewString(cs.Min.String()),
				types.NewString(cs.Max.String()),
				types.NewInt(int64(len(cs.Hist))),
				types.NewInt(int64(ts.Snapshot)),
			})
		}
	}
	return newMemRelation("system.table_stats", schema, b)
}

// indexesRelation lists every secondary index with its size counters.
func (c systemCatalog) indexesRelation() *memRelation {
	schema := types.Schema{
		{Name: "table_name", Type: types.String},
		{Name: "index_name", Type: types.String},
		{Name: "column_name", Type: types.String},
		{Name: "kind", Type: types.String},
		{Name: "keys", Type: types.Int64},
		{Name: "entries", Type: types.Int64},
	}
	b := types.NewBatch(schema)
	names := c.db.store.TableNames()
	sort.Strings(names)
	for _, tn := range names {
		tbl, err := c.db.store.Table(tn)
		if err != nil {
			continue
		}
		for _, ix := range tbl.Indexes() {
			b.AppendRow([]types.Value{
				types.NewString(tn),
				types.NewString(ix.Name),
				types.NewString(ix.Column),
				types.NewString(ix.Kind),
				types.NewInt(int64(ix.Keys)),
				types.NewInt(int64(ix.Entries)),
			})
		}
	}
	return newMemRelation("system.indexes", schema, b)
}

func (c systemCatalog) queryLogRelation() *memRelation {
	schema := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "started", Type: types.String},
		{Name: "statement", Type: types.String},
		{Name: "trace_id", Type: types.String},
		{Name: "duration_ms", Type: types.Float64},
		{Name: "rows", Type: types.Int64},
		{Name: "peak_bytes", Type: types.Int64},
		{Name: "status", Type: types.String},
		{Name: "error", Type: types.String},
	}
	b := types.NewBatch(schema)
	for _, e := range c.db.queryLog.Snapshot() {
		b.AppendRow([]types.Value{
			types.NewInt(e.ID),
			types.NewString(e.Started.UTC().Format(time.RFC3339Nano)),
			types.NewString(e.Statement),
			types.NewString(e.TraceID),
			types.NewFloat(float64(e.Duration.Nanoseconds()) / 1e6),
			types.NewInt(e.Rows),
			types.NewInt(e.PeakBytes),
			types.NewString(e.Status),
			types.NewString(e.Err),
		})
	}
	return newMemRelation("system.query_log", schema, b)
}

func (c systemCatalog) metricsRelation() *memRelation {
	schema := types.Schema{
		{Name: "name", Type: types.String},
		{Name: "value", Type: types.Int64},
	}
	b := types.NewBatch(schema)
	for _, m := range c.db.metrics.Snapshot() {
		b.AppendRow([]types.Value{types.NewString(m.Name), types.NewInt(m.Value)})
	}
	// Histogram summaries (p50/p95/p99/count per histogram) follow the
	// plain counters, so `SELECT * FROM system.metrics` is one stop for
	// both counts and latency distributions.
	for _, m := range c.db.metrics.Hist().HistogramSummaries() {
		b.AppendRow([]types.Value{types.NewString(m.Name), types.NewInt(m.Value)})
	}
	return newMemRelation("system.metrics", schema, b)
}

// planCacheRelation lists the cached plan templates, most recently used
// first (list position 0 is the MRU entry, the last to be evicted).
func (c systemCatalog) planCacheRelation() *memRelation {
	schema := types.Schema{
		{Name: "position", Type: types.Int64},
		{Name: "statement", Type: types.String},
		{Name: "num_params", Type: types.Int64},
		{Name: "hits", Type: types.Int64},
		{Name: "ddl_version", Type: types.Int64},
		{Name: "stats_version", Type: types.Int64},
	}
	b := types.NewBatch(schema)
	for i, e := range c.db.planCache.Snapshot() {
		b.AppendRow([]types.Value{
			types.NewInt(int64(i)),
			types.NewString(e.Key),
			types.NewInt(int64(e.NParams)),
			types.NewInt(e.Hits),
			types.NewInt(int64(e.DDLVer)),
			types.NewInt(int64(e.StatsVer)),
		})
	}
	return newMemRelation("system.plan_cache", schema, b)
}

// memRelation is an immutable in-memory relation backing a virtual table.
type memRelation struct {
	name   string
	schema types.Schema
	batch  *types.Batch
}

func newMemRelation(name string, schema types.Schema, batch *types.Batch) *memRelation {
	return &memRelation{name: name, schema: schema, batch: batch}
}

func (r *memRelation) Name() string         { return r.name }
func (r *memRelation) Schema() types.Schema { return r.schema }
func (r *memRelation) NumRows(_ uint64) int { return r.batch.Len() }
func (r *memRelation) PhysicalRows() int    { return r.batch.Len() }

func (r *memRelation) Cursor(_ uint64, lo, hi int) catalog.Cursor {
	n := r.batch.Len()
	if hi < 0 || hi > n {
		hi = n
	}
	var c catalog.Batches
	if lo = max(lo, 0); lo < hi {
		c = catalog.Batches{r.batch.Slice(lo, hi)}
	}
	return &c
}
