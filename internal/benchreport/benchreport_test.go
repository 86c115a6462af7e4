package benchreport

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	r := New("x", 3, map[string]any{"n": 1000, "dataset": "uniform-2d"})
	r.Metrics["speedup"] = 1.5
	r.Metrics["equal"] = Bool(true)
	r.Rows["ticks"] = []struct {
		NS int64 `json:"ns"`
	}{{10}, {20}}
	if err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "x" || got.Host != r.Host || got.Host.Threads != 3 || got.Host.NumCPU < 1 || got.Host.GOMAXPROCS < 1 {
		t.Errorf("envelope: got %+v, want experiment x, host %+v", got, r.Host)
	}
	if !reflect.DeepEqual(got.Metrics, r.Metrics) {
		t.Errorf("metrics: got %v, want %v", got.Metrics, r.Metrics)
	}
	wantParams := map[string]any{"n": 1000.0, "dataset": "uniform-2d"}
	if !reflect.DeepEqual(got.Params, wantParams) {
		t.Errorf("params: got %v, want %v", got.Params, wantParams)
	}
	wantRows := map[string]any{"ticks": []any{map[string]any{"ns": 10.0}, map[string]any{"ns": 20.0}}}
	if !reflect.DeepEqual(got.Rows, wantRows) {
		t.Errorf("rows: got %v, want %v", got.Rows, wantRows)
	}
}

func TestReadMissingFile(t *testing.T) {
	_, err := Read(filepath.Join(t.TempDir(), "BENCH_absent.json"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want an fs.ErrNotExist error", err)
	}
}

func TestReadMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":      `{"experiment": "hot", "host": {`,
		"old schema":     `{"seed": 1, "threads": 1, "headline_2d_grid_speedup": 1.5}`,
		"no experiment":  `{"host": {"num_cpu": 2, "gomaxprocs": 2, "threads": 1}, "metrics": {}}`,
		"no host":        `{"experiment": "hot", "metrics": {"x": 1}}`,
		"string metric":  `{"experiment": "hot", "host": {"num_cpu": 2, "gomaxprocs": 2, "threads": 1}, "metrics": {"x": "1"}}`,
		"unknown in env": `{"experiment": "hot", "host": {"num_cpu": 2, "gomaxprocs": 2, "threads": 1}, "gates": []}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCH_bad.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(path)
		if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "not a bench report") {
			t.Errorf("%s: got %v, want a parse error", name, err)
		}
	}
}

func TestWriteRejectsNonFinite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	r := New("x", 1, nil)
	r.Metrics["ratio"] = math.Inf(1)
	if err := Write(path, r); err == nil {
		t.Fatal("Write accepted an infinite metric")
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed Write left a file behind: %v", err)
	}
}
