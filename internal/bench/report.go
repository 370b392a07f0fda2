package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// HostInfo records the execution environment of a benchmark run, captured
// automatically so benchrunner's JSON reports are comparable across machines.
type HostInfo struct {
	GoMaxProcs   int    `json:"gomaxprocs"`
	VisibleCores int    `json:"visible_cores"`
	GoVersion    string `json:"go_version"`
	OS           string `json:"os"`
	Arch         string `json:"arch"`
}

// Host captures the current environment.
func Host() HostInfo {
	return HostInfo{
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		VisibleCores: runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
	}
}

// Report is the machine-readable artifact of one benchrunner invocation:
// environment, scale, and every experiment table including per-operator
// stats for the engine-backed systems.
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	Host        HostInfo `json:"host"`
	// ScalingValid is false when the host exposes a single core: parallel
	// speedup is physically impossible there, so worker-sweep numbers
	// measure coordination overhead, not scaling. Consumers should not
	// compare multi-worker ratios from such a report against targets.
	ScalingValid bool     `json:"scaling_valid"`
	Scale        Scale    `json:"scale"`
	Tables       []*Table `json:"tables"`
}

// NewReport assembles a report for the given tables, stamping the host
// block and generation time.
func NewReport(scale Scale, tables []*Table) *Report {
	host := Host()
	return &Report{
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		Host:         host,
		ScalingValid: host.VisibleCores > 1,
		Scale:        scale,
		Tables:       tables,
	}
}

// WriteJSON writes the report to path, indented.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
