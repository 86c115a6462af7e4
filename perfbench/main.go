// Command perfbench is the repository's end-to-end benchmark. It drives one
// of three closed-loop workloads from a single process — batch sessions and a
// streaming window over the dbscand HTTP API on a loopback listener, or an
// in-process 3D parameter search — checks every result against an
// independent in-process run, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload batch-http-2d --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run measures an untraced pass and then a traced pass, replays the same
// inputs through the in-process layer calls, and the result carries the
// per-layer metrics plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 25, "measured loop length of one pass, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rep, err := run(*name, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// rounds is how many times a pass sets its workload up and then runs its
// loop for a share of the pass. Spreading the set-ups and every metric's
// samples over the whole pass keeps a slow stretch of the host from landing
// on all samples of one metric; setup_s is the median over the rounds.
const rounds = 4

// scenario is one workload: its inputs, references and server state.
type scenario interface {
	// setup tears down any earlier set-up, brings the workload up again and
	// records setup_s (and anything else it measures) into l. It starts
	// every round of a pass.
	setup(l *ledger) error
	// iteration runs one timed iteration of the closed loop into l.
	iteration(l *ledger) error
	// minIterations is the fewest iterations one pass runs, even past its
	// deadline; maxIterations (0 = none) the most one round's inputs allow.
	minIterations() int
	maxIterations() int
	// endPass runs the checks that need the whole pass, outside any timing.
	endPass(l *ledger)
	// replay sends the traced pass's inputs through the in-process layer
	// calls, recording per-layer metrics into l.
	replay(l *ledger) error
	close()
}

// workloads maps each workload name to its constructor at full size.
var workloads = map[string]func(seed int64) (scenario, error){
	"batch-http-2d":  func(seed int64) (scenario, error) { return newBatch(batchDefaults, seed) },
	"stream-http-2d": func(seed int64) (scenario, error) { return newStream(streamDefaults, seed) },
	"paramsearch-3d": func(seed int64) (scenario, error) { return newParamsearch(paramDefaults, seed) },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run measures the named workload and returns its report; progress lines go
// to log.
func run(name string, o options, log io.Writer) (*report, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	sc, err := mk(o.seed)
	if err != nil {
		return nil, err
	}
	return measure(name, sc, o, log)
}

// measure runs the untraced pass and, for a traced run, the traced pass and
// the replay, then assembles the report.
func measure(name string, sc scenario, o options, log io.Writer) (*report, error) {
	defer sc.close()
	fmt.Fprintf(log, "perfbench %s seed=%d seconds=%g trace=%v\n", name, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(log, "host: num_cpu=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep := &report{workload: name, trace: o.trace}
	plain, err := runPass(sc, false, o.seconds)
	if err != nil {
		return nil, err
	}
	rep.passes = append(rep.passes, plain)
	if o.trace {
		traced, err := runPass(sc, true, o.seconds)
		if err != nil {
			return nil, err
		}
		if err := sc.replay(traced); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rep.passes = append(rep.passes, traced)
	}
	rep.log(log)
	return rep, nil
}

// runPass runs the pass's rounds: each sets the workload up, then runs its
// closed loop until the round's share of the pass has passed and it has run
// its share of the minimum iteration count.
func runPass(sc scenario, traced bool, seconds time.Duration) (*ledger, error) {
	l := newLedger(traced)
	start := time.Now()
	minPerRound := max(1, (sc.minIterations()+rounds-1)/rounds)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		if err := sc.setup(l); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
		deadline := start.Add(seconds * time.Duration(r+1) / rounds)
		for i := 0; ; i++ {
			if max := sc.maxIterations(); max > 0 && i >= max {
				break
			}
			if i >= minPerRound && !time.Now().Before(deadline) {
				break
			}
			if err := sc.iteration(l); err != nil {
				return nil, err
			}
			l.iterations++
		}
	}
	sc.endPass(l)
	return l, nil
}

// report is what one run prints: the passes' ledgers rendered as metrics.
type report struct {
	workload string
	trace    bool
	passes   []*ledger // untraced, then traced when trace is set
}

func (r *report) attempted() int {
	n := 0
	for _, l := range r.passes {
		n += l.attempted
	}
	return n
}

func (r *report) failed() int {
	n := 0
	for _, l := range r.passes {
		n += l.failed
	}
	return n
}

// metrics returns the values the result line carries: the end-to-end metrics
// of the untraced pass, or the per-layer metrics of the traced pass with the
// tracing overhead.
func (r *report) metrics() map[string]metricValue {
	out := map[string]metricValue{}
	if !r.trace {
		for _, m := range endToEnd {
			out[m.name] = metricValue{r.passes[0].endToEnd(m.name), m.unit}
		}
		return out
	}
	for _, m := range perLayer {
		v, _ := r.layer(m.name)
		out[m.name] = metricValue{v, m.unit}
	}
	return out
}

// layer returns a per-layer metric of a traced run, and whether the
// workload's path measured it.
func (r *report) layer(name string) (float64, bool) {
	plain, traced := r.passes[0], r.passes[1]
	if e, ok := strings.CutPrefix(name, "overhead."); ok {
		return traced.endToEnd(e) - plain.endToEnd(e), true
	}
	return traced.layer(name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result() result {
	att, fail := r.attempted(), r.failed()
	return result{Correct: att > 0 && fail == 0, Attempted: att, Failed: fail, Metrics: r.metrics()}
}

func (r *report) write(w io.Writer) error {
	b, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// log prints every metric by name and unit, the workload's own metrics, the
// failure count and any failure notes, ahead of the result line.
func (r *report) log(w io.Writer) {
	for _, l := range r.passes {
		kind := "untraced"
		if l.traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "%s pass: %d iterations, fail_ratio=%g (%d failed of %d attempted)\n",
			kind, l.iterations, l.failRatio(), l.failed, l.attempted)
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", m.name, l.endToEnd(m.name), m.unit, len(l.samples[m.name]))
		}
		for _, m := range workloadMetrics[r.workload] {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", m.name, l.workloadMetric(m), m.unit, len(l.samples[m.from]))
		}
		for _, note := range l.notes {
			fmt.Fprintf(w, "  failure: %s\n", note)
		}
	}
	if !r.trace {
		return
	}
	fmt.Fprintln(w, "per-layer metrics (traced pass; n/a = layer not on this workload's path):")
	for _, m := range perLayer {
		v, measured := r.layer(m.name)
		na := ""
		if !measured {
			na = " n/a"
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-8s%s\n", m.name, v, m.unit, na)
	}
}
