package engine

import (
	"context"
	"encoding/json"
	"time"

	"lambdadb/internal/exec"
	"lambdadb/internal/sql"
	"lambdadb/internal/telemetry"
)

// execLogged runs one statement and folds its outcome into the engine
// telemetry: cumulative counters and latency histograms (system.metrics),
// the recent-statement ring (system.query_log), and — when the statement
// ran at least the configured threshold — the slow-query log. The trace ID
// carried by ctx (if any) is stamped into the log entries so one ID follows
// the statement across every surface.
func (s *Session) execLogged(ctx context.Context, text string, st sql.Statement) (*Result, error) {
	return s.execLoggedKind(ctx, text, sql.Classify(st).Kind, func(ctx context.Context) (*Result, error) {
		return s.execStatement(ctx, st)
	})
}

// execLoggedKind is execLogged without an AST: the plan-cache hit path uses
// it because a cached statement is never re-parsed, so there is no syntax
// tree to classify — the caller supplies the histogram kind and a closure
// that does the work.
func (s *Session) execLoggedKind(ctx context.Context, text string, kind sql.Kind, run func(context.Context) (*Result, error)) (*Result, error) {
	s.lastStats, s.lastPeak, s.planNs = nil, 0, 0
	db := s.db
	db.metrics.QueriesActive.Add(1)
	start := time.Now()
	res, err := run(ctx)
	dur := time.Since(start)
	db.metrics.QueriesActive.Add(-1)

	status := telemetry.StatusOf(err)
	var returned, affected int64
	if res != nil {
		returned = int64(len(res.Rows))
		affected = int64(res.Affected)
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	db.metrics.RecordStatement(status, returned, affected, dur, s.lastPeak)
	hist := db.metrics.Hist()
	hist.RecordStmt(string(kind), dur.Nanoseconds())
	// Stage split: parse time is attributed by ExecContext (s.parseNs),
	// plan time by execSelect (s.planNs); what remains is execution.
	execNs := dur.Nanoseconds() - s.planNs
	if execNs < 0 {
		execNs = 0
	}
	hist.RecordStages(s.parseNs+s.planNs, execNs)
	s.parseNs = 0
	traceID := telemetry.TraceID(ctx)
	db.queryLog.Add(telemetry.QueryLogEntry{
		Started:   start,
		Statement: text,
		TraceID:   traceID,
		Duration:  dur,
		Rows:      returned + affected,
		PeakBytes: s.lastPeak,
		Status:    status,
		Err:       errText,
	})
	if db.slowSink != nil && dur >= db.slowThreshold {
		db.metrics.SlowQueries.Add(1)
		s.emitSlowQuery(text, traceID, dur, returned+affected, status)
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

func (s *Session) emitSlowQuery(text, traceID string, dur time.Duration, rows int64, status string) {
	rec := slowQueryRecord{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		Statement:  text,
		TraceID:    traceID,
		DurationMS: float64(dur.Nanoseconds()) / 1e6,
		Rows:       rows,
		Status:     status,
		PeakBytes:  s.lastPeak,
		Stats:      s.lastStats,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.db.slowMu.Lock()
	defer s.db.slowMu.Unlock()
	s.db.slowSink.Write(append(b, '\n'))
}
