package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/server/client"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
	datagen "lambdadb/internal/workload"
)

const (
	ptsDims     = 4
	aggGroups   = 100
	joinBuckets = 500
	joinSel     = 0.01
	topK        = 100
)

// The fixed cycle of scan_agg, in order: classes a, b, c and extra.
var scanSQL = [numClasses]string{
	classA: "SELECT count(*), sum(d1), avg(d2) FROM pts WHERE d0 < 0.5",
	classB: fmt.Sprintf("SELECT g, count(*), sum(d1) FROM (SELECT cast(floor(d0 * %d) AS BIGINT) AS g, d1 FROM pts) t GROUP BY g", aggGroups),
	classC: fmt.Sprintf("SELECT a.k, count(*), sum(a.v + b.v) FROM "+
		"(SELECT cast(floor(d1 * %[1]d) AS BIGINT) AS k, d2 AS v FROM pts WHERE d0 < %[2]g) a JOIN "+
		"(SELECT cast(floor(d1 * %[1]d) AS BIGINT) AS k, d3 AS v FROM pts WHERE d0 >= %[3]g) b ON a.k = b.k GROUP BY a.k",
		joinBuckets, joinSel, 1-joinSel),
	classExtra: fmt.Sprintf("SELECT d0, d1, d2, d3 FROM pts ORDER BY d2 DESC LIMIT %d", topK),
}

// scanStmts names the four statements; a span is a prefix plus the name.
var scanStmts = [numClasses]string{"filter", "agg", "join", "topk"}

var scanSpans = func() (out [numClasses]string) {
	for i, name := range scanStmts {
		out[i] = "scan." + name
	}
	return out
}()

// scanAgg keeps the executor busy — scan, filter, hash aggregation, hash
// join, top-k, morsel parallelism — behind one non-durable server; results
// are a few hundred rows, so wire, router and WAL do almost nothing.
type scanAgg struct {
	h    *harness
	sz   sizes
	seed int64

	data []float64 // row-major n x 4
	ref  *scanRef
	top  *cleanup
	srv  *member
	sess *scanSession
}

func (w *scanAgg) spanNames() [numClasses]string { return scanSpans }

func (w *scanAgg) setup(ctx context.Context) error {
	n := w.sz.ptsRows
	w.data = datagen.UniformVectors(n, ptsDims, w.seed)
	w.top = w.h.topology()
	var err error
	if w.srv, err = startServer(w.top); err != nil {
		return err
	}
	if err := datagen.LoadVectorTable(w.srv.db, "pts", w.data, n, ptsDims); err != nil {
		return fmt.Errorf("load pts: %w", err)
	}
	conn, err := dial(w.top, w.srv.addr)
	if err != nil {
		return err
	}
	if w.ref == nil { // the reference is the benchmark's work, not the system's set-up
		w.ref = newScanRef(w.data, n)
	}
	w.sess = &scanSession{exec: conn.Exec, ref: w.ref}
	return nil
}

func (w *scanAgg) clients() []session { return []session{w.sess} }

// check: every statement was held to the reference as it returned.
func (w *scanAgg) check(ctx context.Context) error { return nil }

func (w *scanAgg) close() { w.h.release(w.top) }

// scanSession walks the four statements in order, over whatever executes
// text: a client connection or an embedded engine.
type scanSession struct {
	exec func(text string) (*client.Result, error)
	ref  *scanRef
	i    int
}

func (s *scanSession) next(ctx context.Context) (op, error) {
	class := s.i % numClasses
	s.i++
	start := time.Now()
	res, err := s.exec(scanSQL[class])
	o := op{class: class, start: start, lat: time.Since(start)}
	if err != nil {
		return o, fmt.Errorf("%s: %w", scanSpans[class], err)
	}
	if err := s.ref.check(class, res.Rows); err != nil {
		return o, fmt.Errorf("%s: %w", scanSpans[class], err)
	}
	return o, nil
}

// embeddedExec adapts an engine to scanSession.exec.
func embeddedExec(db *engine.DB) func(string) (*client.Result, error) {
	return func(text string) (*client.Result, error) {
		res, err := db.Query(text)
		if err != nil {
			return nil, err
		}
		return &client.Result{Columns: res.Columns, Types: res.Types, Rows: res.Rows}, nil
	}
}

// scanRef is the expected result of each statement, computed in Go from
// the generated array.
type scanRef struct {
	filter [3]float64             // count, sum(d1), avg(d2)
	agg    map[int64][2]float64   // g -> count, sum(d1)
	join   map[int64][2]float64   // k -> count, sum(a.v + b.v)
	top    [topK][ptsDims]float64 // by d2 descending
}

func newScanRef(data []float64, n int) *scanRef {
	r := &scanRef{agg: map[int64][2]float64{}, join: map[int64][2]float64{}}
	type side struct{ n, sum float64 }
	left, right := map[int64]side{}, map[int64]side{}
	var cnt, sumD1, sumD2 float64
	order := make([]int, n)
	for i := 0; i < n; i++ {
		order[i] = i
		d := data[i*ptsDims : i*ptsDims+ptsDims]
		if d[0] < 0.5 {
			cnt++
			sumD1 += d[1]
			sumD2 += d[2]
		}
		g := int64(math.Floor(d[0] * aggGroups))
		a := r.agg[g]
		r.agg[g] = [2]float64{a[0] + 1, a[1] + d[1]}
		k := int64(math.Floor(d[1] * joinBuckets))
		if d[0] < joinSel {
			s := left[k]
			left[k] = side{s.n + 1, s.sum + d[2]}
		}
		if d[0] >= 1-joinSel {
			s := right[k]
			right[k] = side{s.n + 1, s.sum + d[3]}
		}
	}
	r.filter = [3]float64{cnt, sumD1, sumD2 / cnt}
	for k, l := range left {
		if rt, ok := right[k]; ok {
			r.join[k] = [2]float64{l.n * rt.n, l.sum*rt.n + rt.sum*l.n}
		}
	}
	sort.Slice(order, func(i, j int) bool { return data[order[i]*ptsDims+2] > data[order[j]*ptsDims+2] })
	for i := 0; i < topK && i < n; i++ {
		copy(r.top[i][:], data[order[i]*ptsDims:order[i]*ptsDims+ptsDims])
	}
	return r
}

// closeRel holds got to want within a relative 1e-9.
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

func (r *scanRef) check(class int, rows [][]types.Value) error {
	switch class {
	case classA:
		if len(rows) != 1 {
			return fmt.Errorf("%d rows, want 1", len(rows))
		}
		for i, want := range r.filter {
			if got := rows[0][i].AsFloat(); !closeRel(got, want) {
				return fmt.Errorf("column %d = %v, want %v", i, got, want)
			}
		}
	case classB:
		return checkGroups(rows, r.agg)
	case classC:
		return checkGroups(rows, r.join)
	default:
		want := min(topK, len(r.top))
		if len(rows) != want {
			return fmt.Errorf("%d rows, want %d", len(rows), want)
		}
		for i, row := range rows {
			for j := range row {
				if got := row[j].AsFloat(); !closeRel(got, r.top[i][j]) {
					return fmt.Errorf("row %d column %d = %v, want %v", i, j, got, r.top[i][j])
				}
			}
		}
	}
	return nil
}

// checkGroups compares (key, count, sum) rows with the reference groups.
func checkGroups(rows [][]types.Value, want map[int64][2]float64) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		k := row[0].AsInt()
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("unexpected group %d", k)
		}
		if got := row[1].AsFloat(); got != w[0] {
			return fmt.Errorf("group %d count = %v, want %v", k, got, w[0])
		}
		if got := row[2].AsFloat(); !closeRel(got, w[1]) {
			return fmt.Errorf("group %d sum = %v, want %v", k, got, w[1])
		}
	}
	return nil
}

// cycles runs whole cycles of s, each statement a child span of its
// cycle's span. The first cycle warms and is not recorded.
func cycles(ctx context.Context, s *scanSession, n int, tr *tracer, prefix string) error {
	return tr.passes(ctx, 1, n, func(t *tracer, i int) error {
		parent := t.begin(prefix+"cycle", noSpan)
		for c := 0; c < numClasses; c++ {
			o, err := s.next(ctx)
			if err != nil {
				return err
			}
			t.record(prefix+scanStmts[o.class], parent, o.start, o.lat)
		}
		t.end(parent)
		return nil
	})
}

func (w *scanAgg) layers(ctx context.Context, tr *tracer, m *metrics, out io.Writer) error {
	sc := w.h.topology()
	defer w.h.release(sc)
	n := w.sz.ptsRows
	reps := w.sz.probeCycles

	// Through the server: the per-statement split of the cycle.
	w.sess.i = 0
	if err := cycles(ctx, w.sess, reps, tr, "scan."); err != nil {
		return err
	}

	// Embedded, at the default worker count and at one worker.
	for _, v := range []struct {
		prefix string
		opts   []engine.Option
	}{{"scan.embedded.", nil}, {"scan.serial.", []engine.Option{engine.WithWorkers(1)}}} {
		db := startEmbedded(sc, v.opts...)
		if err := datagen.LoadVectorTable(db, "pts", w.data, n, ptsDims); err != nil {
			return err
		}
		runtime.GC() // time the executor, not the collection of the load's garbage
		if err := cycles(ctx, &scanSession{exec: embeddedExec(db), ref: w.ref}, reps, tr, v.prefix); err != nil {
			return err
		}
	}

	// Front end only: parse, and parse+plan without executing.
	es := w.srv.db.NewSession()
	defer es.Close()
	if err := frontEnd(ctx, es, scanSQL[:], reps, tr, "scan."); err != nil {
		return err
	}

	ms := func(ns float64) float64 { return ns / 1e6 }
	cycle := tr.p50("scan.cycle")
	parts := []namedValue{
		{"exec.filter_ms", ms(tr.p50("scan.filter"))},
		{"exec.agg_ms", ms(tr.p50("scan.agg"))},
		{"exec.join_ms", ms(tr.p50("scan.join"))},
		{"exec.topk_ms", ms(tr.p50("scan.topk"))},
	}
	partSum := 0.0
	for _, p := range parts {
		partSum += p.value
	}
	serial, parallel := tr.p50("scan.serial.cycle"), tr.p50("scan.embedded.cycle")
	if err := m.setAll(parts); err != nil {
		return err
	}
	set := []namedValue{
		{"scan.cycle_ms", ms(cycle)},
		{"scan.cycle_residual_ms", ms(cycle) - partSum},
		{"exec.rows_scanned_per_s", 5 * float64(n) / (cycle / 1e9)}, // the join reads pts twice
		{"exec.speedup_workers", serial / parallel},
		{"engine.explain_ms", ms(sum(tr.durations("scan.explain")) / float64(reps))},
		{"sql.parse_us", sum(tr.durations("scan.parse")) / float64(reps) / 1e3},
	}
	if err := m.setAll(set); err != nil {
		return err
	}

	fmt.Fprintf(out, "\nbudget scan_agg: cycle p50 through the server = %.3f ms (n=%d cycles of 4 statements over %d rows)\n", ms(cycle), reps, n)
	printBudget(out, "ms", ms(cycle), parts)
	fmt.Fprintf(out, "  embedded cycle p50 %.3f ms at %d workers, %.3f ms at 1 worker: speed-up %.3f (gomaxprocs %d)\n",
		ms(parallel), w.srv.db.Workers(), ms(serial), serial/parallel, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "  front end of the 4 statements: parse %.1f us, parse+plan %.3f ms = %.2f %% of the cycle\n",
		m.get("sql.parse_us"), m.get("engine.explain_ms"), 100*m.get("engine.explain_ms")/ms(cycle))
	return nil
}

// frontEnd times sql.Parse and Session.Explain over texts, reps times
// after one warming pass; each pass over all texts adds one set of spans
// named <prefix>parse and <prefix>explain.
func frontEnd(ctx context.Context, s *engine.Session, texts []string, reps int, tr *tracer, prefix string) error {
	return tr.passes(ctx, 1, reps, func(t *tracer, i int) error {
		for _, text := range texts {
			if err := t.timed(prefix+"parse", noSpan, func() error {
				_, err := sql.Parse(text)
				return err
			}); err != nil {
				return err
			}
			if err := t.timed(prefix+"explain", noSpan, func() error {
				_, err := s.Explain(text)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
}
