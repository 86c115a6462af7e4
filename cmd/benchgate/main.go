// Command benchgate checks bench reports (BENCH_*.json, the
// internal/benchreport envelope cmd/dbscanbench writes) against the
// acceptance rules of each experiment and emits GitHub Actions annotations
// (::notice / ::warning / ::error lines).
//
// Usage:
//
//	benchgate [-baseline BENCH_hot.baseline.json] [-strict] BENCH_*.json
//
// The rules are one table: each names an experiment, a metric, a floor or a
// ceiling, a severity, and optionally that the bound is a fraction of the
// baseline report's value of the metric or a condition under which it is
// skipped (with a ::notice). Every report passed on the command line is
// checked against the rules of its experiment. Performance bounds are
// host-relative ratios or generous latency budgets, never absolute ns/op, and
// carry a 10% grace below the value the optimization was accepted at. Soft
// rules annotate with ::warning (::error and a non-zero exit under -strict);
// hard rules are correctness invariants and always fail.
//
// A rule reads every metric whose key is its metric name or starts with that
// name and a dot (per-dataset keys such as sampled_best_speedup.ss-varden-2d).
// A report that lacks a metric one of its rules reads is a hard error, so a
// producer that stops emitting a gated value cannot pass silently. A report
// file that does not exist produces a ::notice and is skipped; a file that
// exists but is not an envelope is an error. A baseline recorded at a different
// thread count than the fresh report is refused with a ::notice: ratios
// measured at different worker counts are not comparable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"time"

	"pdbscan/internal/benchreport"
)

// grace is the regression allowance: a ratio more than 10% below the value it
// was accepted at (or below the committed baseline) regresses.
const grace = 0.9

// rule is one acceptance check on one metric of one experiment's reports.
type rule struct {
	experiment string
	metric     string
	bound      float64
	ceiling    bool // the metric must not exceed bound; otherwise it must reach it
	hard       bool // a correctness invariant: fails regardless of -strict
	// vsBaseline makes the bound a fraction of the baseline report's value of
	// the metric; the rule is skipped when no baseline of the experiment was
	// given.
	vsBaseline bool
	// skip, when set, returns a non-empty reason to skip the rule.
	skip func(fresh, base *benchreport.Report) string
	what string // what the bound is, for the annotation
}

// rules is every gate. Booleans are metrics of 0 or 1 with a floor of 1.
var rules = []rule{
	// Clustering-phase hot path (BENCH_hot.json): speedup of the specialized
	// kernels + arena over the generic fallback, and allocations vs the seed.
	{experiment: "hot", metric: "headline_2d_grid_speedup", bound: 1.3 * grace, what: "1.3x acceptance floor less 10%"},
	{experiment: "hot", metric: "headline_alloc_ratio", bound: 5 * grace, what: "5x acceptance floor less 10%"},
	{experiment: "hot", metric: "headline_2d_grid_speedup", bound: grace, vsBaseline: true, skip: threadsDiffer, what: "10% below the committed baseline"},
	{experiment: "hot", metric: "headline_alloc_ratio", bound: grace, vsBaseline: true, skip: threadsDiffer, what: "10% below the committed baseline"},

	// Multi-core scaling and sampled-core (DBSCAN++) accuracy/speedup.
	{experiment: "scale", metric: "thread_counts", bound: 2, hard: true, what: "two swept worker counts"},
	{experiment: "scale", metric: "top_self_speedup", bound: 1.5 * grace, skip: singleCPU, what: "1.5x self-relative scaling floor less 10%"},
	{experiment: "scale", metric: "sampled_rows", bound: 1, hard: true, what: "one sampled-core row at frac <= 0.1"},
	{experiment: "scale", metric: "sampled_accurate_rows", bound: 1, hard: true, what: "one sampled-core row with ARI >= 0.95 vs exact at frac <= 0.1"},
	{experiment: "scale", metric: "sampled_best_speedup", bound: 2 * grace, what: "2x sampled-core speedup floor less 10%"},

	// Cancellable serving path: recovery and budget are invariants; the
	// cancellation latency is an absolute budget.
	{experiment: "serve", metric: "recovered_equal", bound: 1, hard: true, what: "every run after a cancelled run equal to the baseline"},
	{experiment: "serve", metric: "budget_conformant", bound: 1, hard: true, what: "engine worker usage within the shared budget"},
	{experiment: "serve", metric: "cancel_latency_max_ns", bound: float64(50 * time.Millisecond), ceiling: true, skip: noMidRunCancel, what: "cancellation latency budget"},

	// HTTP load: the serving contract is hard; latency is host-dependent, so
	// its ceilings and the load floor are soft.
	{experiment: "api", metric: "budget_conformant", bound: 1, hard: true, what: "engine worker usage within the shared budget under HTTP load"},
	{experiment: "api", metric: "retry_after_always", bound: 1, hard: true, what: "Retry-After on every 429/503"},
	{experiment: "api", metric: "errors_other", bound: 0, ceiling: true, hard: true, what: "no failure outside the designed 429/503 backpressure"},
	{experiment: "api", metric: "drained_cleanly", bound: 1, hard: true, what: "graceful drain completed"},
	{experiment: "api", metric: "sessions", bound: 200, what: "200-session load floor"},
	{experiment: "api", metric: "queue_p99_ns", bound: float64(5 * time.Second), ceiling: true, what: "queue-wait p99 ceiling"},
	{experiment: "api", metric: "latency_p99_ns", bound: float64(30 * time.Second), ceiling: true, what: "end-to-end p99 ceiling"},

	// EMST hierarchy: every cut equals its from-scratch run; the sweep
	// amortizes one build over 16 cuts.
	{experiment: "emst", metric: "queries_equal", bound: 1, hard: true, what: "every cut equal to its from-scratch run"},
	{experiment: "emst", metric: "amortization_ratio", bound: 5 * grace, what: "5x amortization floor less 10%"},

	// Out-of-core: the acceptance criteria of the spill mode are hard; the
	// spill-vs-in-RAM wall ratio is host-dependent and soft.
	{experiment: "ooc", metric: "labels_perm_equal", bound: 1, hard: true, what: "spill labels permutation-equal to the in-RAM run"},
	{experiment: "ooc", metric: "dataset_budget_ratio", bound: 4, hard: true, what: "dataset at least 4x the residency budget"},
	{experiment: "ooc", metric: "peak_window_ratio", bound: 1.25, ceiling: true, hard: true, what: "peak mapped window within 1.25x the residency budget"},
	{experiment: "ooc", metric: "wall_ratio", bound: 8, ceiling: true, what: "8x spill-vs-in-RAM wall ceiling"},
}

func threadsDiffer(fresh, base *benchreport.Report) string {
	if base.Host.Threads != fresh.Host.Threads {
		return fmt.Sprintf("baseline recorded at threads=%d but fresh report at threads=%d; thread-mismatched baselines are not comparable",
			base.Host.Threads, fresh.Host.Threads)
	}
	return ""
}

func singleCPU(fresh, _ *benchreport.Report) string {
	if fresh.Host.NumCPU <= 1 {
		return fmt.Sprintf("runner has %d CPU; the self-relative scaling floor is not applicable", fresh.Host.NumCPU)
	}
	return ""
}

func noMidRunCancel(fresh, _ *benchreport.Report) string {
	if n, ok := fresh.Metrics["cancelled_mid_cluster"]; ok && n == 0 {
		return "no trial was cancelled mid-run; latency budget not exercised"
	}
	return ""
}

// gate accumulates the run's verdict: soft regressions (warnings, errors
// under -strict) and hard failures (always errors).
type gate struct {
	out       io.Writer // annotations and verdict lines
	strict    bool
	regressed bool
	hardFail  bool
}

func (g *gate) warn(format string, args ...any) {
	level := "warning"
	if g.strict {
		level = "error"
	}
	g.regressed = true
	fmt.Fprintf(g.out, "::"+level+" ::"+format+"\n", args...)
}

func (g *gate) fail(format string, args ...any) {
	g.hardFail = true
	fmt.Fprintf(g.out, "::error ::"+format+"\n", args...)
}

func (g *gate) notice(format string, args ...any) {
	fmt.Fprintf(g.out, "::notice ::"+format+"\n", args...)
}

// check applies every rule of r's experiment to r. base is the baseline
// report, or nil; it is used only by rules of its own experiment.
func (g *gate) check(r, base *benchreport.Report) {
	if base != nil && base.Experiment != r.Experiment {
		base = nil
	}
	checked, fired := 0, false
	for _, ru := range rules {
		if ru.experiment != r.Experiment || (ru.vsBaseline && base == nil) {
			continue
		}
		keys := matching(r.Metrics, ru.metric)
		if len(keys) == 0 {
			g.fail("%s: report lacks metric %s, which a rule reads", r.Experiment, ru.metric)
			fired = true
			continue
		}
		if ru.skip != nil {
			if reason := ru.skip(r, base); reason != "" {
				g.notice("%s: %s rule skipped: %s", r.Experiment, ru.metric, reason)
				continue
			}
		}
		bound, what := ru.bound, ru.what
		if ru.vsBaseline {
			ref, ok := base.Metrics[ru.metric]
			if !ok {
				g.notice("%s: baseline has no %s; rule skipped", r.Experiment, ru.metric)
				continue
			}
			bound *= ref
			what = fmt.Sprintf("%s of %s", what, fmtMetric(ru.metric, ref))
		}
		for _, k := range keys {
			v := r.Metrics[k]
			checked++
			if ru.ceiling && v <= bound || !ru.ceiling && v >= bound {
				continue
			}
			fired = true
			side := "below the floor"
			if ru.ceiling {
				side = "above the ceiling"
			}
			report := g.warn
			if ru.hard {
				report = g.fail
			}
			report("%s: %s = %s, %s %s (%s)", r.Experiment, k, fmtMetric(k, v), side, fmtMetric(k, bound), what)
		}
	}
	if !fired {
		fmt.Fprintf(g.out, "benchgate: %s ok (%d checks)\n", r.Experiment, checked)
	}
}

// matching returns the sorted metric keys a rule on metric reads: metric
// itself and every metric+"."-prefixed key.
func matching(metrics map[string]float64, metric string) []string {
	var keys []string
	for k := range metrics {
		if k == metric || strings.HasPrefix(k, metric+".") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// fmtMetric prints nanosecond metrics as durations and others as numbers.
func fmtMetric(key string, v float64) string {
	if strings.HasSuffix(key, "_ns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.4g", v)
}

func main() {
	basePath := flag.String("baseline", "", "baseline report to compare against (optional; BENCH_hot.json for the hot rules)")
	strict := flag.Bool("strict", false, "exit non-zero (and annotate as errors) on a soft regression")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: benchgate [-baseline FILE] [-strict] BENCH_*.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	g := &gate{out: os.Stdout, strict: *strict}
	g.run(*basePath, flag.Args())
	if !g.regressed && !g.hardFail {
		fmt.Println("benchgate: ok")
	}
	if g.hardFail || (g.regressed && *strict) {
		os.Exit(1)
	}
}

// run reads the baseline (if basePath is set) and checks every report in
// paths.
func (g *gate) run(basePath string, paths []string) {
	var base *benchreport.Report
	if basePath != "" {
		var err error
		if base, err = benchreport.Read(basePath); err != nil {
			// An unusable baseline is not a regression: the first run that
			// generates one has nothing to compare against.
			g.notice("benchgate: no usable baseline (%v); checked the absolute bounds only", err)
		}
	}
	for _, path := range paths {
		r, err := benchreport.Read(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			g.notice("benchgate: %s not found; gate skipped", path)
		case err != nil:
			g.fail("benchgate: %v", err)
		default:
			g.check(r, base)
		}
	}
}
