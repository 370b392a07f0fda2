package engine

import (
	"context"
	"encoding/json"
	"time"

	"lambdadb/internal/exec"
	"lambdadb/internal/sql"
	"lambdadb/internal/telemetry"
)

// stmt is one statement's bookkeeping. The entry path creates one per
// statement and passes it down explicitly — to the plan cache, the builder,
// runPlan and EXPLAIN ANALYZE — and execLogged reads it back, so nothing
// about a statement is left on the Session for the next one to inherit.
type stmt struct {
	start   time.Time     // the statement's clock: its duration runs from here
	parseNs int64         // parse time: its share of the script's parse, or its own parse on a cache miss
	planNs  int64         // time spent building plans
	collect bool          // record the per-operator stats tree and peak bytes
	stats   *exec.OpStats // per-operator stats tree of the plan it ran, when collected
	peak    int64         // peak accounted bytes, when collected
}

// newStmt starts a statement's bookkeeping. parseNs is its share of a
// script parse that already ran; the clock is started that much earlier, so
// the statement's duration counts its parse however it was parsed.
func (s *Session) newStmt(parseNs int64) *stmt {
	return &stmt{
		start:   time.Now().Add(-time.Duration(parseNs)),
		parseNs: parseNs,
		collect: s.collect || s.db.slowSink != nil,
	}
}

// execLogged runs one statement and folds its outcome into the engine
// telemetry: cumulative counters and latency histograms (system.metrics),
// the recent-statement ring (system.query_log), and — when the statement
// ran at least the configured threshold — the slow-query log. Every entry
// path (a script's statements, a cached SELECT, EXECUTE, ExecutePrepared)
// runs through here: kind is the statement's histogram label and run does
// the work. The trace ID carried by ctx (if any) is stamped into the log
// entries so one ID follows the statement across every surface.
func (s *Session) execLogged(ctx context.Context, st *stmt, text string, kind sql.Kind, run func(context.Context) (*Result, error)) (*Result, error) {
	db := s.db
	db.metrics.QueriesActive.Add(1)
	res, err := run(ctx)
	dur := time.Since(st.start)
	db.metrics.QueriesActive.Add(-1)
	s.lastStats, s.lastPeak = st.stats, st.peak

	status := telemetry.StatusOf(err)
	var returned, affected int64
	if res != nil {
		returned = int64(res.numRows())
		affected = int64(res.Affected)
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	db.metrics.RecordStatement(status, returned, affected, dur, st.peak)
	hist := db.metrics.Hist()
	hist.RecordStmt(string(kind), dur.Nanoseconds())
	frontEnd := st.parseNs + st.planNs
	hist.RecordStages(frontEnd, max(dur.Nanoseconds()-frontEnd, 0))
	traceID := telemetry.TraceID(ctx)
	db.queryLog.Add(telemetry.QueryLogEntry{
		Started:   st.start,
		Statement: text,
		TraceID:   traceID,
		Duration:  dur,
		Rows:      returned + affected,
		PeakBytes: st.peak,
		Status:    status,
		Err:       errText,
	})
	if db.slowSink != nil && dur >= db.slowThreshold {
		db.metrics.SlowQueries.Add(1)
		s.emitSlowQuery(st, text, traceID, dur, returned+affected, status)
	}
	return res, err
}

// slowQueryRecord is one slow-log line. Stats is the per-operator tree of
// the statement (nil for statements with no plan-driven execution, e.g.
// VALUES inserts).
type slowQueryRecord struct {
	TS         string        `json:"ts"`
	Statement  string        `json:"statement"`
	TraceID    string        `json:"trace_id,omitempty"`
	DurationMS float64       `json:"duration_ms"`
	Rows       int64         `json:"rows"`
	Status     string        `json:"status"`
	PeakBytes  int64         `json:"peak_bytes"`
	Stats      *exec.OpStats `json:"stats,omitempty"`
}

func (s *Session) emitSlowQuery(st *stmt, text, traceID string, dur time.Duration, rows int64, status string) {
	rec := slowQueryRecord{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		Statement:  text,
		TraceID:    traceID,
		DurationMS: float64(dur.Nanoseconds()) / 1e6,
		Rows:       rows,
		Status:     status,
		PeakBytes:  st.peak,
		Stats:      st.stats,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.db.slowMu.Lock()
	defer s.db.slowMu.Unlock()
	s.db.slowSink.Write(append(b, '\n'))
}
