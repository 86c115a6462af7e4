// Command dbscanbench regenerates every table and figure of the paper's
// evaluation (Section 7) at laptop scale. Each experiment prints the same
// rows/series the paper reports; EXPERIMENTS.md records the paper-vs-measured
// comparison of the shapes.
//
// Usage:
//
//	dbscanbench -exp fig6            # Figure 6: time vs eps (d >= 3)
//	dbscanbench -exp fig8 -full      # all 11 datasets instead of the subset
//	dbscanbench -exp all -n 200000   # everything, at 200k points
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	n        int
	seed     int64
	threads  int // 0 = all
	full     bool
	jsonPath string // experiments with a report: write BENCH_*.json here
}

var experiments = map[string]struct {
	desc string
	run  func(options)
}{
	"table1":   {"parallel primitive scaling (Table 1 bounds demonstrated empirically)", expTable1},
	"fig6":     {"running time vs eps, d>=3 datasets (Figure 6)", expFig6},
	"fig7":     {"running time vs minPts, d>=3 datasets (Figure 7)", expFig7},
	"fig8":     {"speedup over best serial vs threads (Figure 8)", expFig8},
	"fig9":     {"self-relative speedup vs threads (Figure 9)", expFig9},
	"fig10":    {"running time vs rho, approximate methods (Figure 10)", expFig10},
	"fig11":    {"2D variants vs eps/minPts/n/threads (Figure 11)", expFig11},
	"table2":   {"large-scale datasets vs RP-DBSCAN-style comparator (Table 2)", expTable2},
	"ablation": {"design-choice ablations: neighbor finding, MarkCore strategy, bucketing batches", expAblation},
	"verify":   {"cross-variant agreement at scale (all exact variants identical)", expVerify},
	"stream":   {"sliding-window streaming ticks: incremental vs from-scratch (-json records BENCH_stream.json)", expStream},
	"hot":      {"clustering-phase hot path: specialized kernels + arena vs generic fallback (-json records BENCH_hot.json)", expHot},
	"scale":    {"multi-core scaling per method and sampled-core DBSCAN++ accuracy/speedup (-json records BENCH_scale.json)", expScale},
	"serve":    {"serving path: cancellation latency mid-run + Engine throughput under mixed jobs (-json records BENCH_serve.json)", expServe},
	"emst":     {"EMST-backed hierarchy: one build amortized over a 16-eps sweep vs independent runs (-json records BENCH_emst.json)", expEmst},
	"api":      {"HTTP serving layer under hundreds of concurrent mixed sessions (-json records BENCH_api.json)", expAPI},
	"ooc":      {"store-backed out-of-core run vs in-RAM at a dataset 4x the residency budget (-json records BENCH_ooc.json)", expOoc},
}

func main() {
	var o options
	exp := flag.String("exp", "", "experiment to run: all, "+expNames())
	flag.IntVar(&o.n, "n", 100000, "points per dataset (the paper uses 10M-4.4B; scale as your machine allows)")
	flag.Int64Var(&o.seed, "seed", 1, "dataset generation seed")
	flag.IntVar(&o.threads, "threads", 0, "thread count for non-scaling experiments (0 = all)")
	flag.BoolVar(&o.full, "full", false, "run all 11 datasets in fig6/7/8 instead of the default subset")
	flag.StringVar(&o.jsonPath, "json", "", "experiments with a report: write the machine-readable report to this file (e.g. BENCH_stream.json, BENCH_scale.json)")
	flag.Parse()

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: dbscanbench -exp <experiment> [-n N] [-full]")
		fmt.Fprintln(os.Stderr, "experiments:")
		for _, name := range sortedExpNames() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", name, experiments[name].desc)
		}
		os.Exit(2)
	}
	fmt.Printf("dbscanbench: %d CPUs, n=%d, seed=%d\n", runtime.NumCPU(), o.n, o.seed)
	start := time.Now()
	if *exp == "all" {
		for _, name := range sortedExpNames() {
			fmt.Printf("\n########## %s: %s ##########\n", name, experiments[name].desc)
			experiments[name].run(o)
		}
	} else if e, ok := experiments[*exp]; ok {
		e.run(o)
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; want one of: all, %s\n", *exp, expNames())
		os.Exit(2)
	}
	fmt.Printf("\ntotal experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}

func sortedExpNames() []string {
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func expNames() string {
	out := ""
	for i, name := range sortedExpNames() {
		if i > 0 {
			out += ", "
		}
		out += name
	}
	return out
}
