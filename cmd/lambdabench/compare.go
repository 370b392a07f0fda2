package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// setLine is one run in a set file: the result line plus what produced it.
type setLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

// appendResult adds one run to a set file.
func appendResult(path string, cfg config, resultLine []byte) error {
	var r result
	if err := json.Unmarshal(resultLine, &r); err != nil {
		return err
	}
	line, err := json.Marshal(setLine{Workload: cfg.workload, Seed: cfg.seed, result: r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSet groups a set file's values by workload and metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l setLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !l.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s seed %d failed its checks", path, n, l.Workload, l.Seed)
		}
		if out[l.Workload] == nil {
			out[l.Workload] = map[string][]float64{}
		}
		for name, v := range l.Metrics {
			out[l.Workload][name] = append(out[l.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// how the acceptance criterion defines spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	ld := len(xs)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareSets prints, per workload and end-to-end metric, both medians,
// both quartile spreads as a share of the median, the bound and a verdict:
// unresolved when either spread is wider than the bound, else worse when
// b's median is worse than a's by more than the bound, else ok. It reports
// whether every verdict was ok.
func compareSets(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readSet(bPath)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(w, "%-14s %-18s %14s %8s %14s %8s %7s %8s  %s\n",
		"workload", "metric", "median_a", "iqr_a", "median_b", "iqr_b", "bound", "change", "verdict")
	for _, wl := range bj.Workloads {
		for _, e := range bj.EndToEnd {
			va, vb := a[wl.Name][e.Name], b[wl.Name][e.Name]
			if len(va) < 2 || len(vb) < 2 {
				return false, fmt.Errorf("%s / %s: %d and %d runs; a spread needs at least 2 in each set", wl.Name, e.Name, len(va), len(vb))
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			change := (b2 - a2) / a2 // of a's median
			worse := change
			if e.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case spreadA > e.Bound || spreadB > e.Bound:
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "worse"
			}
			if verdict != "ok" {
				allOK = false
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %7.2f%% %14.6g %7.2f%% %6.1f%% %+7.2f%%  %s\n",
				wl.Name, e.Name, a2, 100*spreadA, b2, 100*spreadB, 100*e.Bound, 100*change, verdict)
		}
	}
	return allOK, nil
}
