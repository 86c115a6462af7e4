// Package benchreport is the one format of the repository's bench reports
// (the BENCH_*.json files cmd/dbscanbench writes and cmd/benchgate gates).
// Every report is the same envelope:
//
//	{experiment, host{num_cpu, gomaxprocs, threads}, params{...}, metrics{name: number}, rows{...}}
//
// params holds the run's scalars (n, seed, eps, dataset, ...), metrics every
// value a gate may read (booleans as 0/1), and rows the per-run detail a
// report keeps for inspection (ticks, series, queries, ...).
package benchreport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"pdbscan/internal/atomicfile"
)

// Host is the machine a report was measured on.
type Host struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Threads is the worker count the experiment ran at, resolved (never the
	// "0 = all" flag value): ratios measured at different counts are not
	// comparable.
	Threads int `json:"threads"`
}

// Report is the envelope every BENCH_*.json carries.
type Report struct {
	Experiment string             `json:"experiment"`
	Host       Host               `json:"host"`
	Params     map[string]any     `json:"params"`
	Metrics    map[string]float64 `json:"metrics"`
	Rows       map[string]any     `json:"rows,omitempty"`
}

// New starts a report for experiment run at threads workers with the given
// params, with the host filled in from the running process.
func New(experiment string, threads int, params map[string]any) *Report {
	return &Report{
		Experiment: experiment,
		Host:       Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Threads: threads},
		Params:     params,
		Metrics:    map[string]float64{},
		Rows:       map[string]any{},
	}
}

// Bool is the metric encoding of a boolean: 1 for true, 0 for false.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Write stores r at path atomically: a crash leaves either the previous file
// or the complete new one. A metric that is NaN or infinite is an error (JSON
// cannot carry it).
func Write(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchreport: encode %s: %w", path, err)
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// Read loads the report at path. A missing file returns an error that
// matches fs.ErrNotExist, so callers can skip its gates; a file that exists
// but is not an envelope (unparseable, an unknown field such as a pre-envelope
// schema's, or no experiment or host) is an error of its own.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: not a bench report: %w", path, err)
	}
	if r.Experiment == "" || r.Host.NumCPU <= 0 || r.Host.GOMAXPROCS <= 0 {
		return nil, fmt.Errorf("%s: not a bench report: missing experiment or host", path)
	}
	return &r, nil
}
