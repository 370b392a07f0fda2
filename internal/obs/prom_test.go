package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lambdadb/internal/engine"
	"lambdadb/internal/telemetry"
)

// metricLine matches one sample of the text exposition format:
// name{labels} value — where the label set is optional but never empty
// braces.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]+\})? [^ ]+$`)

// TestRenderMetricsValidity runs real statements through an engine and then
// lints the full exposition: every line is a comment or a well-formed
// sample, every sample belongs to a declared family, histogram buckets are
// cumulative and end at +Inf with the _count value.
func TestRenderMetricsValidity(t *testing.T) {
	db := engine.Open()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (n BIGINT); INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT count(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	_, _ = db.Exec(`SELECT broken`) // drive the error counter too

	text := RenderMetrics(db)
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition does not end with a newline")
	}

	typed := map[string]string{} // family -> type
	samples := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			if _, dup := typed[parts[2]]; dup {
				t.Errorf("family %s declared twice", parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.Contains(line, "{}") {
			t.Errorf("empty label braces in %q", line)
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		samples[name] = append(samples[name], line)
	}

	// Every sample must trace back to a declared family (histogram samples
	// via their _bucket/_sum/_count suffix).
	for name := range samples {
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typed[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("sample %s has no TYPE declaration", name)
		}
	}

	// Core counters and gauges are present with their declared types.
	for name, wantType := range map[string]string{
		"lambdadb_statements_total": "counter",
		"lambdadb_statements_error": "counter",
		"lambdadb_conns_active":     "gauge",
		"lambdadb_queries_active":   "gauge",
		"lambdadb_sessions_active":  "gauge",
		"lambdadb_wal_durable_lsn":  "gauge",
	} {
		if got := typed[name]; got != wantType {
			t.Errorf("family %s type = %q, want %q", name, got, wantType)
		}
	}
	if typed["lambdadb_statement_latency_seconds"] != "histogram" {
		t.Error("statement latency histogram family missing")
	}

	// The statements we ran must show up.
	if !strings.Contains(text, "lambdadb_statement_latency_seconds_bucket{kind=\"select\"") {
		t.Error("no select-kind latency buckets after running SELECTs")
	}
	checkHistogramBuckets(t, samples)
}

// checkHistogramBuckets verifies the cumulative invariants per label set:
// bucket counts are non-decreasing in le order (which matches emission
// order) and the +Inf bucket equals the _count sample.
func checkHistogramBuckets(t *testing.T, samples map[string][]string) {
	t.Helper()
	for name, lines := range samples {
		if !strings.HasSuffix(name, "_bucket") {
			continue
		}
		// Group by label set minus le; emission order is ascending le.
		type state struct {
			last  int64
			final int64
			inf   bool
		}
		byLabels := map[string]*state{}
		for _, line := range lines {
			open := strings.Index(line, "{")
			end := strings.LastIndex(line, "}")
			labels := line[open+1 : end]
			val, err := strconv.ParseInt(strings.TrimSpace(line[end+1:]), 10, 64)
			if err != nil {
				t.Errorf("bucket value in %q: %v", line, err)
				continue
			}
			le := ""
			var rest []string
			for _, kv := range strings.Split(labels, ",") {
				if strings.HasPrefix(kv, "le=") {
					le = kv
				} else {
					rest = append(rest, kv)
				}
			}
			key := strings.Join(rest, ",")
			st := byLabels[key]
			if st == nil {
				st = &state{last: -1}
				byLabels[key] = st
			}
			if val < st.last {
				t.Errorf("%s{%s}: cumulative count decreased to %d (%s)", name, key, val, le)
			}
			st.last = val
			if le == `le="+Inf"` {
				st.inf = true
				st.final = val
			}
		}
		countName := strings.TrimSuffix(name, "_bucket") + "_count"
		for key, st := range byLabels {
			if !st.inf {
				t.Errorf("%s{%s}: no +Inf bucket", name, key)
				continue
			}
			want := fmt.Sprintf(" %d", st.final)
			found := false
			for _, cl := range samples[countName] {
				if strings.Contains(cl, key) && strings.HasSuffix(cl, want) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s{%s}: +Inf bucket %d does not match any %s sample", name, key, st.final, countName)
			}
		}
	}
}

// BenchmarkRenderMetrics is the cost of one Prometheus scrape against a
// populated engine. It never takes a query lock, but it should stay cheap
// enough to scrape every few seconds (printed by make bench-obs).
func BenchmarkRenderMetrics(b *testing.B) {
	db := engine.Open()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (n BIGINT); INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Exec(`SELECT count(*) FROM t`); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RenderMetrics(db)
	}
}

// TestRenderReplication checks the per-link gauges, ordering, and label
// escaping.
func TestRenderReplication(t *testing.T) {
	var sb strings.Builder
	renderReplication(&sb, []engine.ReplicationRow{
		{Role: "primary", Peer: "10.0.0.9:50", State: "streaming", AppliedClock: 90, PrimaryClock: 100, LastContact: 1500},
		{Role: "primary", Peer: `weird"peer`, State: "catchup", AppliedClock: 120, PrimaryClock: 100, LastContact: -1},
	})
	out := sb.String()
	if !strings.Contains(out, `lambdadb_repl_lag_records{role="primary",peer="10.0.0.9:50"} 10`) {
		t.Errorf("missing lag gauge:\n%s", out)
	}
	// Negative lag (replica acked ahead of the cached primary clock) clamps to 0.
	if !strings.Contains(out, `peer="weird\"peer"} 0`) {
		t.Errorf("negative lag not clamped / label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `lambdadb_repl_last_contact_seconds{role="primary",peer="10.0.0.9:50"} 1.5`) {
		t.Errorf("last-contact seconds wrong:\n%s", out)
	}
	if !strings.Contains(out, `state="catchup"`) {
		t.Errorf("link info state missing:\n%s", out)
	}
	// Stable order: peers sorted.
	if strings.Index(out, "10.0.0.9") > strings.Index(out, "weird") {
		t.Errorf("rows not sorted by peer:\n%s", out)
	}

	var empty strings.Builder
	renderReplication(&empty, nil)
	if empty.Len() != 0 {
		t.Errorf("no rows should render nothing, got:\n%s", empty.String())
	}
}

// TestRenderHistogramTruncation: only buckets up to the highest non-empty
// one are emitted (plus +Inf), so an idle histogram costs two lines.
func TestRenderHistogramTruncation(t *testing.T) {
	var sb strings.Builder
	var h telemetry.Histogram
	renderHistogram(&sb, telemetry.HistogramDef{Family: "probe_seconds", Seconds: true, H: &h})
	out := sb.String()
	if got := strings.Count(out, "_bucket"); got != 2 {
		t.Errorf("idle histogram emitted %d bucket lines, want 2 (zero bucket and +Inf):\n%s", got, out)
	}
	if !strings.Contains(out, `le="+Inf"`) || !strings.Contains(out, "_count 0") {
		t.Errorf("idle histogram missing +Inf/count:\n%s", out)
	}

	sb.Reset()
	h.Record(1000) // bucket 10
	renderHistogram(&sb, telemetry.HistogramDef{Family: "probe_seconds", Seconds: true, H: &h})
	out = sb.String()
	// Buckets 0..10 plus +Inf.
	if got := strings.Count(out, "_bucket"); got != 12 {
		t.Errorf("emitted %d bucket lines, want 12:\n%s", got, out)
	}
	// Nanosecond buckets are scaled to seconds: upper(10) = 1023ns.
	if !strings.Contains(out, `le="1.023e-06"`) {
		t.Errorf("ns bucket bound not scaled to seconds:\n%s", out)
	}
}
