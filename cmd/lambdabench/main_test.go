package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun runs one workload at the smoke scale and fails the test unless
// the run is correct and emits exactly the metrics of defs, each finite.
func smokeRun(t *testing.T, cfg config, defs []metricDef) {
	t.Helper()
	cfg.scale = "smoke"
	h := newHarness()
	defer h.shutdown()
	var out bytes.Buffer
	res, err := run(context.Background(), h, cfg, &out)
	if err != nil {
		t.Fatalf("%+v: %v\n%s", cfg, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%+v: correct=%v attempted=%d failed=%d\n%s", cfg, res.Correct, res.Attempted, res.Failed, out.String())
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%+v: %d metrics, want %d", cfg, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%+v: metric %s missing", cfg, d.name)
		case v.Unit != d.unit:
			t.Errorf("%+v: metric %s has unit %q, want %q", cfg, d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%+v: metric %s = %v", cfg, d.name, v.Value)
		}
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
	}
	// The last line a caller prints must be exactly the contract's keys.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(keys), line)
	}
}

// TestSmokeEndToEnd runs all four workloads tiny, on two seeds.
func TestSmokeEndToEnd(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2} {
			smokeRun(t, config{workload: name, seed: seed, seconds: 0.3}, endToEnd)
		}
	}
}

// TestSmokeTraced runs the traced run, which measures every layer on all
// four data sets, and holds the span file to its count.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	spans := filepath.Join(dir, "spans.json")
	smokeRun(t, config{workload: "oltp_cluster", seed: 3, seconds: 0.4, trace: true, spans: spans}, perLayer)
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("the traced run wrote no span")
	}
	for _, s := range got {
		if s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("bad span %+v", s)
		}
	}
}

// TestMetricsMatchBenchmarkJSON holds BENCHMARK.json to the harness's own
// lists and to the limits of its contract.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better = %q", name, better)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, want %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, e := range bj.EndToEnd {
		checkName(e.Name, e.Unit, e.Better)
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d is %s [%s], want %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, want %d", len(bj.PerLayer), len(perLayer))
	}
	for i, e := range bj.PerLayer {
		checkName(e.Name, e.Unit, e.Better)
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d is %s [%s], want %s [%s]", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// settle waits for the goroutine count to come back to baseline: the
// servers' connection goroutines end a moment after their sockets close.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertNothingLeft(t *testing.T, baseline int, tmp string, addrs []string) {
	t.Helper()
	settle(t, baseline)
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", addr)
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left in the temp dir, first %s", len(left), left[0].Name())
	}
}

// TestClusterLeavesNothingBehind starts and stops the cluster topology
// twice: afterwards no goroutine, listener or temp dir is left.
func TestClusterLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 2; round++ {
		h := newHarness()
		w := &oltpCluster{h: h, sz: scales["smoke"], seed: int64(round)}
		if err := w.setup(context.Background()); err != nil {
			h.shutdown()
			t.Fatal(err)
		}
		addrs := []string{w.primary.addr, w.replica.addr, w.router}
		if _, err := runWindow(context.Background(), 100*time.Millisecond, w.clients(), nil, w.spanNames()); err != nil {
			t.Fatal(err)
		}
		w.close()
		assertNothingLeft(t, baseline, tmp, addrs)
	}
}

// TestShutdownMidRun is the signal and -deadline path: the context is
// cancelled and the harness shut down while clients are mid-window. The
// run must come back with an error and leave nothing.
func TestShutdownMidRun(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	baseline := runtime.NumGoroutine()
	h := newHarness()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := run(ctx, h, config{workload: "oltp_cluster", seed: 1, seconds: 30, scale: "smoke"}, &bytes.Buffer{})
		done <- err
	}()
	time.Sleep(700 * time.Millisecond) // set-up is over, the warm-up is running
	cancel()
	h.shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Error("an interrupted run returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run did not return after shutdown")
	}
	assertNothingLeft(t, baseline, tmp, nil)
}

// TestCleanupRunWaits: the signal path and the normal path may both call
// run; whichever comes second must not return (and let the process exit)
// while the first is still releasing.
func TestCleanupRunWaits(t *testing.T) {
	var c cleanup
	var released atomic.Bool
	c.add(phaseDirs, func() {
		time.Sleep(50 * time.Millisecond)
		released.Store(true)
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
			if !released.Load() {
				t.Error("run returned before the release finished")
			}
		}()
	}
	wg.Wait()
	ran := false
	c.add(phaseDirs, func() { ran = true })
	if !ran {
		t.Error("a release added after run did not happen at once")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"steady","unit":"ms","better":"lower","bound":0.1},
		{"name":"slower","unit":"ms","better":"lower","bound":0.1},
		{"name":"fewer","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale map[string]float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			jitter := 1 + 0.001*float64(i)
			m := map[string]metricValue{
				"steady": {100 * jitter * scale["steady"], "ms"},
				"slower": {100 * jitter * scale["slower"], "ms"},
				"fewer":  {100 * jitter * scale["fewer"], "1/s"},
				"noisy":  {100 * (1 + 0.05*float64(i)) * scale["noisy"], "ms"},
			}
			line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			if err := appendResult(path, config{workload: "w", seed: int64(i)}, line); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", map[string]float64{"steady": 1, "slower": 1, "fewer": 1, "noisy": 1})
	b := write("b.jsonl", map[string]float64{"steady": 1.05, "slower": 1.2, "fewer": 0.8, "noisy": 1})
	var out bytes.Buffer
	ok, err := compareSets(&out, bench, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("compareSets reported every verdict ok")
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "worse", "fewer": "worse", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 1 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %s, want %s\n%s", metric, f[len(f)-1], verdict, line)
				}
			}
		}
		if !found {
			t.Errorf("no line for %s in\n%s", metric, out.String())
		}
	}
}
