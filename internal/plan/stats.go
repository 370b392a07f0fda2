package plan

import (
	"sort"

	"lambdadb/internal/catalog"
	"lambdadb/internal/types"
)

// ---------------------------------------------------------------------------
// Table statistics
//
// ANALYZE collects per-column statistics in one scan: exact row and NULL
// counts, min/max, a distinct-value count (exact up to a cap, via a hash
// set), and a small equi-depth histogram built from a deterministic sample.
// The cost-based pass (access.go) consumes them through the StatsProvider
// interface; the engine keeps the collected stats in a registry refreshed by
// ANALYZE and CHECKPOINT.
//
// Every estimator here is total and guards its edge cases: an empty table,
// an all-NULL column, and a single-value column all produce sane (zero or
// clamped) selectivities, never a division by zero.
// ---------------------------------------------------------------------------

// StatsProvider hands the planner per-table statistics. Implementations
// return ok=false for tables never analyzed; the planner then falls back to
// shape heuristics and index metadata.
type StatsProvider interface {
	TableStats(table string) (*TableStats, bool)
}

// TableStats is the ANALYZE result for one table.
type TableStats struct {
	Table    string
	RowCount int64
	Snapshot uint64 // the snapshot the stats were collected at
	Cols     []ColumnStats
}

// ColumnStats is the ANALYZE result for one column.
type ColumnStats struct {
	Name      string
	Type      types.Type
	NullCount int64
	// NDV is the observed distinct-value count among non-NULL rows (exact
	// up to ndvCap). 0 means no non-NULL values were seen; consumers must
	// clamp to >= 1 before dividing.
	NDV int64
	// Min and Max bound the non-NULL values; Null when none were seen.
	Min, Max types.Value
	// Hist is a small equi-depth histogram over a sample of the non-NULL
	// values: bucket i covers values <= Hist[i] (and > Hist[i-1]), each
	// bucket holding roughly the same number of sampled rows. Empty when
	// the column had no non-NULL values.
	Hist []types.Value
}

// Col returns the named column's stats.
func (ts *TableStats) Col(name string) (*ColumnStats, bool) {
	if ts == nil {
		return nil, false
	}
	for i := range ts.Cols {
		if ts.Cols[i].Name == name {
			return &ts.Cols[i], true
		}
	}
	return nil, false
}

// EqSelectivity estimates the fraction of rows matching column = constant:
// the non-NULL fraction divided by the distinct-value count. Unknown
// columns fall back to the shape heuristic.
func (ts *TableStats) EqSelectivity(col string) float64 {
	cs, ok := ts.Col(col)
	if !ok {
		return 0.1
	}
	if ts.RowCount == 0 {
		return 0
	}
	nonNull := float64(ts.RowCount-cs.NullCount) / float64(ts.RowCount)
	ndv := cs.NDV
	if ndv < 1 {
		ndv = 1 // all-NULL column: nonNull is already 0
	}
	return nonNull / float64(ndv)
}

// RangeSelectivity estimates the fraction of rows with the column inside
// the given bounds (nil = unbounded side), using the histogram when one
// exists and min/max interpolation otherwise.
func (ts *TableStats) RangeSelectivity(col string, lo, hi *types.Value) float64 {
	cs, ok := ts.Col(col)
	if !ok {
		return 0.3
	}
	if ts.RowCount == 0 {
		return 0
	}
	nonNull := float64(ts.RowCount-cs.NullCount) / float64(ts.RowCount)
	if nonNull == 0 {
		return 0
	}
	return nonNull * cs.rangeFraction(lo, hi)
}

// rangeFraction estimates which fraction of the column's non-NULL values
// fall inside [lo, hi] (inclusive bounds are a fine approximation at
// histogram resolution; nil = unbounded).
func (cs *ColumnStats) rangeFraction(lo, hi *types.Value) float64 {
	if cs.Min.Null || cs.Max.Null {
		return 0 // no non-NULL values observed
	}
	// Disjoint from the observed [Min, Max]?
	if lo != nil && !lo.Null && lo.Compare(cs.Max) > 0 {
		return 0
	}
	if hi != nil && !hi.Null && hi.Compare(cs.Min) < 0 {
		return 0
	}
	if len(cs.Hist) > 0 {
		return cs.histFraction(lo, hi)
	}
	// No histogram (tiny or non-sampled column): linear interpolation over
	// [Min, Max] for numerics, a constant otherwise.
	if !cs.Type.IsNumeric() {
		return 0.3
	}
	minF, maxF := cs.Min.AsFloat(), cs.Max.AsFloat()
	width := maxF - minF
	if width <= 0 {
		return 1 // single-value column and the point is inside the bounds
	}
	frac := 1.0
	if lo != nil && !lo.Null {
		frac -= clamp01((lo.AsFloat() - minF) / width)
	}
	if hi != nil && !hi.Null {
		frac -= clamp01((maxF - hi.AsFloat()) / width)
	}
	return clamp01(frac)
}

// histFraction reads the equi-depth histogram: each bucket holds 1/len of
// the sampled values, so the estimate is the fraction of buckets whose
// upper bound falls inside the range (partially counted at the edges).
func (cs *ColumnStats) histFraction(lo, hi *types.Value) float64 {
	n := len(cs.Hist)
	covered := 0.0
	for _, ub := range cs.Hist {
		inLo := lo == nil || lo.Null || ub.Compare(*lo) >= 0
		inHi := hi == nil || hi.Null || ub.Compare(*hi) <= 0
		if inLo && inHi {
			covered++
		}
	}
	frac := covered / float64(n)
	if frac == 0 {
		// The range is narrower than one bucket: charge half a bucket so a
		// selective range predicate is never estimated at exactly zero.
		frac = 0.5 / float64(n)
	}
	return clamp01(frac)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

const (
	// ndvCap bounds the exact distinct-count hash set; beyond it NDV is
	// reported as the cap (a floor on the true count — selectivity stays
	// conservative and tiny either way).
	ndvCap = 1 << 20
	// sampleCap is the per-column reservoir size feeding the histogram.
	sampleCap = 4096
	// histBuckets is the equi-depth histogram size.
	histBuckets = 32
)

// CollectTableStats scans rel once at the given snapshot and computes
// statistics for every column.
func CollectTableStats(rel catalog.Relation, snapshot uint64) *TableStats {
	schema := rel.Schema()
	ts := &TableStats{Table: rel.Name(), Snapshot: snapshot, Cols: make([]ColumnStats, len(schema))}
	accs := make([]statsAcc, len(schema))
	for i, c := range schema {
		ts.Cols[i] = ColumnStats{Name: c.Name, Type: c.Type,
			Min: types.NewNull(c.Type), Max: types.NewNull(c.Type)}
		accs[i].distinct = map[uint64]struct{}{}
	}
	c := rel.Cursor(snapshot, 0, -1)
	for b := c.Next(); b != nil; b = c.Next() {
		n := b.Len()
		ts.RowCount += int64(n)
		for j, col := range b.Cols {
			cs, acc := &ts.Cols[j], &accs[j]
			for i := 0; i < n; i++ {
				if col.IsNull(i) {
					cs.NullCount++
					continue
				}
				v := col.Value(i)
				if cs.Min.Null || v.Compare(cs.Min) < 0 {
					cs.Min = v
				}
				if cs.Max.Null || v.Compare(cs.Max) > 0 {
					cs.Max = v
				}
				if len(acc.distinct) < ndvCap {
					acc.distinct[v.Hash()] = struct{}{}
				}
				acc.sample(v)
			}
		}
	}
	for j := range ts.Cols {
		cs, acc := &ts.Cols[j], &accs[j]
		cs.NDV = int64(len(acc.distinct))
		cs.Hist = buildHistogram(acc.vals)
	}
	return ts
}

// statsAcc is the per-column scan accumulator.
type statsAcc struct {
	distinct map[uint64]struct{}
	vals     []types.Value // reservoir sample
	seen     int64         // non-NULL values offered to the reservoir
	rng      uint64        // deterministic xorshift state
}

// sample keeps a uniform reservoir of up to sampleCap values. The
// pseudo-random replacement stream is seeded deterministically so repeated
// ANALYZE runs over identical data give identical histograms (stable
// EXPLAIN output and tests).
func (a *statsAcc) sample(v types.Value) {
	a.seen++
	if len(a.vals) < sampleCap {
		a.vals = append(a.vals, v)
		return
	}
	if a.rng == 0 {
		a.rng = 0x9e3779b97f4a7c15
	}
	// xorshift64*
	a.rng ^= a.rng >> 12
	a.rng ^= a.rng << 25
	a.rng ^= a.rng >> 27
	r := (a.rng * 0x2545f4914f6cdd1d) % uint64(a.seen)
	if int(r) < len(a.vals) {
		a.vals[r] = v
	}
}

// buildHistogram sorts the sampled values and picks histBuckets equi-depth
// upper bounds. Fewer than 2 distinct sample points yield no histogram
// (min/max interpolation handles those columns).
func buildHistogram(vals []types.Value) []types.Value {
	if len(vals) < histBuckets {
		return nil
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	out := make([]types.Value, histBuckets)
	for b := 0; b < histBuckets; b++ {
		idx := (b+1)*len(vals)/histBuckets - 1
		out[b] = vals[idx]
	}
	return out
}
