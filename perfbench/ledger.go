package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced pass (README.md maps each to the workload's own
// operations). BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"first_result_s", "s"},
	{"warm_op_s", "s"},
	{"iteration_s", "s"},
	{"resident_bytes", "bytes"},
}

// perLayer are the traced pass's per-layer metrics. A layer that is not on a
// workload's path reports 0 (the log marks it n/a). The overhead.* entries
// are traced minus untraced, per end-to-end metric.
var perLayer = []metricDef{
	{"client.encode_s", "s"},
	{"client.decode_s", "s"},
	{"client.request_bytes", "bytes"},
	{"client.response_bytes", "bytes"},
	{"serve.create_s", "s"},
	{"serve.create_self_s", "s"},
	{"serve.run_s", "s"},
	{"serve.run_self_s", "s"},
	{"serve.insert_s", "s"},
	{"serve.window_s", "s"},
	{"engine.queued_s", "s"},
	{"engine.run_s", "s"},
	{"pdbscan.new_clusterer_s", "s"},
	{"pdbscan.prepare_s", "s"},
	{"pdbscan.run_s", "s"},
	{"pdbscan.cut_s", "s"},
	{"pdbscan.stream_insert_s", "s"},
	{"pdbscan.stream_window_s", "s"},
	{"pdbscan.stream_run_s", "s"},
	{"pdbscan.stream_dirty_cells", "count"},
	{"pdbscan.stream_cells", "count"},
	{"pdbscan.stream_full_ticks", "count"},
	{"grid.build_s", "s"},
	{"grid.neighbors_s", "s"},
	{"grid.cells", "count"},
	{"grid.neighbor_entries", "count"},
	{"grid.partition_s", "s"},
	{"grid.shards", "count"},
	{"core.mark_s", "s"},
	{"core.collect_s", "s"},
	{"core.graph_s", "s"},
	{"core.merge_s", "s"},
	{"core.label_s", "s"},
	{"core.border_s", "s"},
	{"core.core_points", "count"},
	{"core.clusters", "count"},
	{"core.coredist_s", "s"},
	{"core.edges_s", "s"},
	{"core.mst_s", "s"},
	{"core.mst_edges", "count"},
	{"runtime.alloc_bytes", "bytes/op"},
	{"runtime.gc_count", "count/op"},
	{"overhead.setup_s", "s"},
	{"overhead.first_result_s", "s"},
	{"overhead.warm_op_s", "s"},
	{"overhead.iteration_s", "s"},
	{"overhead.resident_bytes", "bytes"},
}

// workloadMetric is a metric named after one workload's own operations,
// read from an end-to-end or detail sample at a percentile.
type workloadMetric struct {
	name, unit, from string
	pct              float64
}

// workloadMetrics are printed in the log next to the end-to-end metrics.
var workloadMetrics = map[string][]workloadMetric{
	"batch-http-2d": {
		{"create_s", "s", "create_s", 50},
		{"warm_run_s", "s", "warm_op_s", 50},
	},
	"stream-http-2d": {
		{"tick_s", "s", "iteration_s", 50},
		{"tick_p90_s", "s", "iteration_s", 90},
	},
	"paramsearch-3d": {
		{"minpts_sweep_s", "s", "minpts_sweep_s", 50},
		{"hierarchy_build_s", "s", "hierarchy_build_s", 50},
		{"eps_sweep_s", "s", "eps_sweep_s", 50},
	},
}

// maxNotes bounds the failure descriptions a ledger keeps.
const maxNotes = 8

// ledger collects one pass's samples and operation counts. Samples are kept
// in memory and aggregated when the report is printed.
type ledger struct {
	traced     bool
	samples    map[string][]float64
	iterations int
	attempted  int
	failed     int
	notes      []string
}

func newLedger(traced bool) *ledger {
	return &ledger{traced: traced, samples: map[string][]float64{}}
}

func (l *ledger) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *ledger) addDur(name string, d time.Duration) { l.add(name, d.Seconds()) }

// op counts one attempted operation, and a failure when err is non-nil. It
// reports whether the operation succeeded.
func (l *ledger) op(err error) bool {
	l.attempted++
	if err != nil {
		l.fail(err)
		return false
	}
	return true
}

// fail counts a failure of an operation already counted as attempted (a
// result that came back but did not check out).
func (l *ledger) fail(err error) {
	l.failed++
	if len(l.notes) < maxNotes {
		l.notes = append(l.notes, err.Error())
	}
}

func (l *ledger) failRatio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// timed runs f as one operation of the workload and returns its wall time,
// recording the operation's allocation counts in a traced pass.
func (l *ledger) timed(f func() error) (time.Duration, error) {
	m := l.memStart()
	d, err := clock(f)
	l.memEnd(m)
	return d, err
}

// clock runs f and returns its wall time. The traced run's replays use it:
// their calls time layers, they are not operations of the workload.
func clock(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// memStart reads the allocation counters before an operation in a traced
// pass; memEnd records the operation's bytes allocated and collections run.
// Both read outside the operation's timed interval.
func (l *ledger) memStart() *runtime.MemStats {
	if !l.traced {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func (l *ledger) memEnd(m0 *runtime.MemStats) {
	if m0 == nil {
		return
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	l.add("runtime.alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	l.add("runtime.gc_count", float64(m1.NumGC-m0.NumGC))
}

func (l *ledger) endToEnd(name string) float64 { return percentile(l.samples[name], 50) }

func (l *ledger) workloadMetric(m workloadMetric) float64 {
	return percentile(l.samples[m.from], m.pct)
}

// layer aggregates a per-layer metric: the median over its samples, or the
// mean per operation for the runtime counters. It reports false, with 0, for
// a layer with no samples.
func (l *ledger) layer(name string) (float64, bool) {
	if name == "serve.create_self_s" {
		create, ok := l.layer("serve.create_s")
		build, ok2 := l.layer("pdbscan.new_clusterer_s")
		if !ok || !ok2 {
			return 0, false
		}
		return create - build, true
	}
	s := l.samples[name]
	if len(s) == 0 {
		return 0, false
	}
	if name == "runtime.alloc_bytes" || name == "runtime.gc_count" {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		return sum / float64(len(s)), true
	}
	return percentile(s, 50), true
}

// percentile returns the p-th percentile of s: the median (mean of the middle
// two for even counts) at 50, nearest rank otherwise; 0 for no samples.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if p == 50 {
		m := len(c) / 2
		if len(c)%2 == 1 {
			return c[m]
		}
		return (c[m-1] + c[m]) / 2
	}
	k := int(math.Ceil(p/100*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k]
}

// liveHeap returns the live heap after full collections. It collects until
// the heap stops shrinking (at most four times): memory reachable only from
// an object with a finalizer, such as a closed connection's file descriptor,
// survives the first collection after it became garbage.
func liveHeap() int64 {
	heap := int64(math.MaxInt64)
	for i := 0; i < 4; i++ {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if int64(m.HeapAlloc) >= heap {
			break
		}
		heap = int64(m.HeapAlloc)
	}
	return heap
}
