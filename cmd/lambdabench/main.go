// Command lambdabench is lambdadb's end-to-end benchmark: one process
// builds each topology in-process (engine, cluster node, wire server,
// router, WAL in a temp dir), drives it through the wire client in a closed
// loop, checks every result, prints every metric by name, and exits with no
// goroutine, listener, temp dir or child process left. BENCHMARK.json at
// the repository root is its contract; README.md here defines the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// sizes fixes how much data each workload holds and how often the layer
// probes repeat. full is what BENCHMARK.json measures; smoke is for the
// package's own test.
type sizes struct {
	kvRows      int // kv rows of oltp_cluster and result_fetch
	oltpClients int // closed-loop sessions of oltp_cluster, <= nproc
	ptsRows     int // pts rows of scan_agg
	fetchRows   [3]int

	kmeansN, kmeansD, kmeansK, kmeansIters int
	prVertices, prEdges, prIters           int
	operatorReps                           int // operator ops per ITERATE op in a paper_layers round

	minSetups    int           // set-ups per run at least; setup_s is their median
	setupBudget  time.Duration // set-ups repeat, up to maxSetups, until this much time is spent
	probeReps    int           // point operations per layer probe
	probeCycles  int           // cycles, fetches and kernel calls per layer probe
	probeSQLReps int           // ITERATE and CTE runs per layer probe
	probeWindow  time.Duration // the traced 80/10/10 mix and the open loop
}

var scales = map[string]sizes{
	"full": {
		kvRows: 200_000, oltpClients: 2,
		ptsRows:   1_000_000,
		fetchRows: [3]int{1_000, 10_000, 100_000},
		kmeansN:   10_000, kmeansD: 10, kmeansK: 5, kmeansIters: 3,
		prVertices: 3_000, prEdges: 100_000, prIters: 10,
		operatorReps: 8,
		minSetups:    3, setupBudget: 2 * time.Second,
		probeReps: 4000, probeCycles: 10, probeSQLReps: 3, probeWindow: 3 * time.Second,
	},
	"smoke": {
		kvRows: 4_000, oltpClients: 2,
		ptsRows:   20_000,
		fetchRows: [3]int{10, 100, 1_000},
		kmeansN:   300, kmeansD: 3, kmeansK: 3, kmeansIters: 2,
		prVertices: 100, prEdges: 1_000, prIters: 3,
		operatorReps: 2,
		minSetups:    1,
		probeReps:    80, probeCycles: 2, probeSQLReps: 1, probeWindow: 200 * time.Millisecond,
	},
}

var workloadNames = []string{"oltp_cluster", "scan_agg", "result_fetch", "paper_layers"}

func newWorkload(name string, h *harness, sz sizes, seed int64) (workload, error) {
	switch name {
	case "oltp_cluster":
		return &oltpCluster{h: h, sz: sz, seed: seed}, nil
	case "scan_agg":
		return &scanAgg{h: h, sz: sz, seed: seed}, nil
	case "result_fetch":
		return &resultFetch{h: h, sz: sz, seed: seed}, nil
	case "paper_layers":
		return &paperLayers{h: h, sz: sz, seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	spans    string // file the traced run writes its spans to; "" writes none
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one benchmark run and returns its result; human-readable
// lines go to out. An error means the run could not be measured at all; a
// run whose operations failed their checks returns Correct == false.
func run(ctx context.Context, h *harness, cfg config, out io.Writer) (*result, error) {
	sz, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if window <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	fmt.Fprintf(out, "lambdabench workload=%s seed=%d seconds=%g trace=%v scale=%s gomaxprocs=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, runtime.GOMAXPROCS(0), runtime.Version())
	if cfg.trace {
		return runTraced(ctx, h, cfg, sz, window, out)
	}
	return runEndToEnd(ctx, h, cfg, sz, window, out)
}

// measure warms the workload up, then runs its measured window and its
// after-window checks.
func measure(ctx context.Context, w workload, window time.Duration, tr *tracer) (*windowStats, error) {
	// A fifth of the window, at most 3 s: plan cache, buffers and the Go
	// heap reach their steady size.
	warm := min(window/5, 3*time.Second)
	if _, err := runWindow(ctx, warm, w.clients(), nil, w.spanNames()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	st, err := runWindow(ctx, window, w.clients(), tr, w.spanNames())
	if err != nil {
		return nil, err
	}
	for c := classA; c <= classC; c++ {
		if len(st.lat[c]) == 0 && st.failed == 0 {
			return nil, fmt.Errorf("the window of %v completed no operation of class %d; it is too short for this workload", window, c)
		}
	}
	if err := w.check(ctx); err != nil {
		// A failed after-window check fails the run as one more operation.
		st.attempted++
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	return st, nil
}

// maxSetups caps the set-ups of one run.
const maxSetups = 25

// runEndToEnd is an untraced run: several set-ups (setup_s is their
// median; a set-up of milliseconds repeats more often than one of a
// second, so that its median is as steady), one warm-up and one measured
// window on the last.
func runEndToEnd(ctx context.Context, h *harness, cfg config, sz sizes, window time.Duration, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, h, sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for spent := time.Duration(0); len(setups) < sz.minSetups || (spent < sz.setupBudget && len(setups) < maxSetups); {
		if len(setups) > 0 {
			w.close()
		}
		start := time.Now()
		err := w.setup(ctx)
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer w.close()
	st, err := measure(ctx, w, window, nil)
	if err != nil {
		return nil, err
	}
	// With the topology still up and the window's results dropped: what
	// the process retains, dead row versions included.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	m := newMetrics(endToEnd)
	if err := m.setAll([]namedValue{
		{"setup_s", median(setups)},
		{"ops_per_s", st.opsPerSec()},
		{"op_a_p10_ms", st.quantileMs(classA, 0.10)},
		{"op_b_p10_ms", st.quantileMs(classB, 0.10)},
		{"op_c_p10_ms", st.quantileMs(classC, 0.10)},
		{"heap_after_gc_mb", float64(ms.HeapAlloc) / (1 << 20)},
	}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "window %.3f s, %d operations attempted, %d failed; %d set-ups\n", st.elapsed.Seconds(), st.attempted, st.failed, len(setups))
	fmt.Fprintf(out, "%-6s %8s %12s %12s %12s\n", "class", "n", "p10_ms", "p50_ms", "p99_ms")
	for c, name := range []string{"a", "b", "c"} {
		fmt.Fprintf(out, "%-6s %8d %12.4f %12.4f %12.4f\n", name, len(st.lat[c]),
			st.quantileMs(c, 0.10), st.quantileMs(c, 0.50), st.quantileMs(c, 0.99))
	}
	return finish(m, st, out)
}

// overheadSlices is how many slices the traced run cuts -seconds into,
// alternately untraced and traced.
const overheadSlices = 4

// runTraced measures every layer: all four workloads are set up in turn
// and their layers probed; the workload named on the command line also
// runs its window untraced and traced, half of -seconds each, for
// trace.overhead_ratio.
func runTraced(ctx context.Context, h *harness, cfg config, sz sizes, window time.Duration, out io.Writer) (*result, error) {
	if _, err := newWorkload(cfg.workload, h, sz, cfg.seed); err != nil {
		return nil, err
	}
	tr := newTracer()
	m := newMetrics(perLayer)
	total := &windowStats{}
	for _, name := range workloadNames {
		w, _ := newWorkload(name, h, sz, cfg.seed)
		err := func() error {
			defer w.close()
			if err := w.setup(ctx); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if name == cfg.workload {
				// Untraced and traced slices alternate, so that drift in the
				// machine or in the data (dead row versions) lands on both.
				plain, traced := &windowStats{}, &windowStats{}
				for i := 0; i < overheadSlices; i++ {
					st, t := plain, (*tracer)(nil)
					if i%2 == 1 {
						st, t = traced, tr
					}
					slice, err := measure(ctx, w, window/overheadSlices, t)
					if err != nil {
						return err
					}
					st.merge(slice)
				}
				total.merge(plain)
				total.merge(traced)
				ratio := traced.opsPerSec() / plain.opsPerSec()
				if err := m.set("trace.overhead_ratio", ratio); err != nil {
					return err
				}
				fmt.Fprintf(out, "\ntrace overhead on %s: %.2f ops/s traced / %.2f ops/s untraced = %.4f\n",
					name, traced.opsPerSec(), plain.opsPerSec(), ratio)
			}
			runtime.GC() // the probes start from a collected heap, not from the load's garbage
			return w.layers(ctx, tr, m, out)
		}()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		runtime.GC() // the next workload's timings should not pay for this one's garbage
	}
	if err := m.set("trace.spans", float64(tr.count())); err != nil {
		return nil, err
	}
	fmt.Fprintln(out)
	tr.printSummary(out)
	if cfg.spans != "" {
		if err := tr.writeFile(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return finish(m, total, out)
}

// finish prints the metrics and assembles the result.
func finish(m *metrics, st *windowStats, out io.Writer) (*result, error) {
	if missing := m.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("metrics never measured: %v", missing)
	}
	fmt.Fprintln(out)
	for _, d := range m.defs {
		fmt.Fprintf(out, "%-40s %16.6f %s\n", d.name, m.get(d.name), d.unit)
	}
	if st.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", st.firstErr)
	}
	return &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m.values}, nil
}

func main() {
	var cfg config
	var trace int
	var deadline time.Duration
	var compare bool
	var benchJSON, appendTo string
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and of the operation sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run and prints the per_layer metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "full or smoke")
	flag.StringVar(&cfg.spans, "spans", "", "file the traced run writes its spans to")
	flag.DurationVar(&deadline, "deadline", 170*time.Second, "hard limit: shut everything down and exit 3 when it passes")
	flag.BoolVar(&compare, "compare", false, "compare two sets of runs: lambdabench -compare a.jsonl b.jsonl")
	flag.StringVar(&benchJSON, "benchmark-json", "BENCHMARK.json", "the bounds -compare holds the sets to")
	flag.StringVar(&appendTo, "append", "", "also append the result, with workload and seed, as one line to this file (a set for -compare)")
	flag.Parse()
	cfg.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: lambdabench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		ok, err := compareSets(os.Stdout, benchJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "lambdabench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// One shutdown path for every way out. A signal or the deadline
	// cancels ctx and tears every topology down from here, which also
	// aborts requests in flight; the run then returns an error and main
	// exits non-zero. Should the run not return, the process still exits,
	// with everything already released.
	h := newHarness()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		h.shutdown()
		time.Sleep(10 * time.Second)
		fmt.Fprintln(os.Stderr, "lambdabench: the run did not stop after shutdown; exiting")
		os.Exit(3)
	}()

	res, err := run(ctx, h, cfg, os.Stdout)
	h.shutdown()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambdabench:", err)
		if ctx.Err() != nil {
			os.Exit(3)
		}
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambdabench:", err)
		os.Exit(2)
	}
	if appendTo != "" {
		if err := appendResult(appendTo, cfg, line); err != nil {
			fmt.Fprintln(os.Stderr, "lambdabench:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}
