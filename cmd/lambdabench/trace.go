package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval: a client operation, or a direct call the
// harness makes into one layer. Times are nanoseconds since the tracer
// started. Parent is the ID of the span that caused it, -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced end-to-end runs call the same code.
// Spans are recorded from the harness's own files only; the layers are not
// instrumented.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

const noSpan int32 = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int32, start time.Time, d time.Duration) int32 {
	if t == nil {
		return noSpan
	}
	from := int64(start.Sub(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: from, End: from + int64(d)})
	t.mu.Unlock()
	return id
}

// begin opens a span whose children are recorded before end closes it.
func (t *tracer) begin(name string, parent int32) int32 {
	return t.record(name, parent, time.Now(), 0)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int32, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(name, parent, start, time.Since(start))
	return err
}

// passes calls body warm+n times. The first warm passes get a nil tracer:
// they warm what is about to be timed and record nothing. It stops between
// passes once ctx is done.
func (t *tracer) passes(ctx context.Context, warm, n int, body func(t *tracer, i int) error) error {
	for i := -warm; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		pt := t
		if i < 0 {
			pt = nil
		}
		if err := body(pt, i); err != nil {
			return err
		}
	}
	return nil
}

// durations returns the durations, in nanoseconds, of every span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// p50 is the median duration of the spans named name, in nanoseconds.
func (t *tracer) p50(name string) float64 { return median(t.durations(name)) }

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanSummary is one row of the self-time table.
type spanSummary struct {
	name   string
	n      int
	p50    float64 // ns
	total  float64 // ns
	selfNs float64 // duration minus the part covered by child spans
}

// summarize derives, per span name, the count, median, total and self time
// (a span's duration minus its direct children's; the harness's child
// spans never overlap each other).
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{name: s.Name}
			byName[s.Name] = sum
		}
		d := float64(s.End - s.Start)
		sum.n++
		sum.total += d
		sum.selfNs += d - float64(childNs[s.ID])
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.p50 = median(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "spans by self time (%d spans)\n", t.count())
	fmt.Fprintf(w, "  %-34s %8s %12s %12s %12s\n", "name", "n", "p50_us", "total_ms", "self_ms")
	for _, s := range t.summarize() {
		fmt.Fprintf(w, "  %-34s %8d %12.2f %12.2f %12.2f\n", s.name, s.n, s.p50/1e3, s.total/1e6, s.selfNs/1e6)
	}
}

// writeFile writes every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
