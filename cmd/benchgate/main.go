// Command benchgate checks a freshly generated BENCH_hot.json against the
// committed baseline and the hot-path acceptance floors, emitting GitHub
// Actions annotations (::warning / ::error lines) when the benchmarks
// regress. It compares only host-relative ratio metrics — the headline
// speedup and allocation ratio — never absolute ns/op, which is not
// comparable across runner hardware.
//
// Usage:
//
//	benchgate -fresh BENCH_hot.json [-baseline BENCH_hot.json] [-scale BENCH_scale.json] [-serve BENCH_serve.json] [-emst BENCH_emst.json] [-api BENCH_api.json] [-ooc BENCH_ooc.json] [-strict]
//
// A metric regresses when it drops more than 10% below the committed
// baseline, or below the absolute floor the optimization was accepted at
// (1.3x clustering-phase speedup, 5x allocation reduction). A baseline whose
// recorded thread count differs from the fresh report's is refused (with a
// ::notice): ratios measured at different worker counts are not comparable,
// so only the absolute floors are checked. With -scale it gates the scaling
// report: the thread sweep must cover at least two worker counts, the top
// self-relative speedup must clear its 1.5x floor (skipped with a ::notice
// on single-CPU runners, where the floor is physically unreachable), and per
// dataset the sampled-core (DBSCAN++) rows at frac <= 0.1 must include one
// with ARI >= 0.95 vs the exact run (hard error otherwise) whose
// clustering-phase speedup clears the 2x floor. With -serve it
// additionally gates the serving-path report: mid-run cancellation latency
// must stay under its 50ms acceptance floor, every cancelled run's recovery
// must have been label-permutation-equal to the baseline, and the Engine's
// sampled worker usage must never have exceeded its budget (the last two are
// hard errors — they are correctness invariants, not performance). With
// -emst it gates the EMST-hierarchy report: the 16-eps sweep must stay at
// least 5x faster than independent runs (a host-relative ratio), and every
// cut must have been label-permutation-equal to its from-scratch run
// (queries_equal=false is a hard error). With -api it gates the HTTP load
// report: the engine's sampled worker usage must never have exceeded its
// budget, every 429/503 must have carried Retry-After, and no request may
// have failed outside the designed backpressure statuses (all three hard
// errors); session count and queue-wait p99 are gated softly, since absolute
// latency is host-dependent. With -ooc it gates the out-of-core report: the
// spill run's labels must be permutation-equal to the in-RAM run, the dataset
// must be at least 4x the residency budget (otherwise the run never left
// RAM-scale and proves nothing), and the peak mapped window must stay within
// 1.25x the budget (all three hard errors — they are the acceptance criteria
// of the out-of-core mode); the spill-vs-in-RAM wall-clock ratio is gated
// softly at 8x, since mapping overhead is host-dependent. Warnings annotate
// the PR; -strict turns them into errors and a non-zero exit.
//
// A report file that simply does not exist — a fresh checkout that has not
// generated it yet, a CI job whose bench step was skipped — produces a
// ::notice and skips that gate; only files that exist but cannot be parsed
// are hard errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// hotHeadline is the subset of the BENCH_hot.json schema the gate reads.
type hotHeadline struct {
	Threads               int     `json:"threads"`
	Headline2DGridSpeedup float64 `json:"headline_2d_grid_speedup"`
	HeadlineAllocRatio    float64 `json:"headline_alloc_ratio"`
}

// emstHeadline is the subset of the BENCH_emst.json schema the gate reads.
type emstHeadline struct {
	N                 int     `json:"n"`
	AmortizationRatio float64 `json:"amortization_ratio"`
	QueriesEqual      bool    `json:"queries_equal"`
}

// apiHeadline is the subset of the BENCH_api.json schema the gate reads.
type apiHeadline struct {
	Sessions         int     `json:"sessions"`
	Requests         int64   `json:"requests"`
	RunsCompleted    int64   `json:"runs_completed"`
	Rate429          float64 `json:"rate_429"`
	RetryAfterAlways bool    `json:"retry_after_always"`
	ErrorsOther      int64   `json:"errors_other"`
	LatencyP99NS     int64   `json:"latency_p99_ns"`
	QueueP99NS       int64   `json:"queue_p99_ns"`
	BudgetConformant bool    `json:"budget_conformant"`
	DrainedCleanly   bool    `json:"drained_cleanly"`
}

// scaleHeadline is the subset of the BENCH_scale.json schema the gate reads.
type scaleHeadline struct {
	NumCPU         int               `json:"num_cpu"`
	ThreadSweep    []int             `json:"thread_sweep"`
	TopSelfSpeedup float64           `json:"top_self_speedup"`
	Sampled        []sampledHeadline `json:"sampled"`
}

// sampledHeadline is one sampled-core row of BENCH_scale.json.
type sampledHeadline struct {
	Dataset string  `json:"dataset"`
	Sampler string  `json:"sampler"`
	Frac    float64 `json:"frac"`
	Speedup float64 `json:"speedup"`
	ARI     float64 `json:"ari"`
}

// oocHeadline is the subset of the BENCH_ooc.json schema the gate reads.
type oocHeadline struct {
	N                 int   `json:"n"`
	DatasetBytes      int64 `json:"dataset_bytes"`
	BudgetBytes       int64 `json:"budget_bytes"`
	InRAMWallNS       int64 `json:"in_ram_wall_ns"`
	OOCWallNS         int64 `json:"ooc_wall_ns"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	LabelsPermEqual   bool  `json:"labels_perm_equal"`
}

// serveHeadline is the subset of the BENCH_serve.json schema the gate reads.
type serveHeadline struct {
	N                   int   `json:"n"`
	CancelLatencyMaxNS  int64 `json:"cancel_latency_max_ns"`
	CancelledMidCluster int   `json:"cancelled_mid_cluster"`
	RecoveredEqual      bool  `json:"recovered_equal"`
	BudgetConformant    bool  `json:"budget_conformant"`
}

// Acceptance floors of the hot-path optimization, with the 10% regression
// grace applied by the caller; of the serving path (cancellation latency,
// absolute — it is a latency budget, not a host-relative ratio); and of the
// EMST hierarchy (sweep amortization over independent runs, a ratio).
const (
	floorSpeedup          = 1.3
	floorAllocRatio       = 5.0
	grace                 = 0.9 // >10% below a reference counts as a regression
	floorCancelLatency    = 50 * time.Millisecond
	floorEmstAmortization = 5.0
	// Scaling gate: self-relative speedup at the top of the thread sweep
	// (skipped on single-CPU runners — one hardware CPU cannot speed itself
	// up) and the sampled-core mode's accuracy/speedup acceptance: at a
	// sample fraction <= 0.1 there must be a configuration per dataset that
	// keeps ARI >= 0.95 vs exact (hard — an approximation answering a
	// different question is not a result) while clustering >= 2x faster
	// (soft, with the usual grace).
	floorScaleSpeedup   = 1.5
	floorSampledSpeedup = 2.0
	floorSampledARI     = 0.95
	ceilSampledFrac     = 0.1
	// API load gate: soft ceilings only — absolute latency depends on the
	// runner, so the hard gates are the boolean invariants.
	floorAPISessions = 200
	ceilAPIQueueP99  = 5 * time.Second
	ceilAPIE2EP99    = 30 * time.Second
	// Out-of-core gate: the dataset must dwarf the residency budget (else the
	// run never exercised spilling), the peak mapped window may overshoot the
	// budget only by the final halo slack the scheduler is allowed, and the
	// wall-clock cost of running from disk is softly bounded relative to the
	// in-RAM run on the same host.
	floorOocDatasetRatio = 4.0
	ceilOocPeakRatio     = 1.25
	ceilOocWallRatio     = 8.0
)

// gate accumulates the run's verdict: soft regressions (warnings, errors
// under -strict) and hard failures (correctness invariants, always errors).
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

// check flags a ratio metric that dropped more than the grace below its
// reference (an acceptance floor or the committed baseline).
func (g *gate) check(metric string, got, ref float64, refName string) {
	if got >= ref*grace {
		return
	}
	g.warn("hot benchmark regression: %s = %.2f, more than 10%% below the %s of %.2f",
		metric, got, refName, ref)
}

func main() {
	freshPath := flag.String("fresh", "BENCH_hot.json", "freshly generated report to check")
	basePath := flag.String("baseline", "", "committed baseline report to compare against (optional)")
	scalePath := flag.String("scale", "", "freshly generated BENCH_scale.json to gate (optional)")
	servePath := flag.String("serve", "", "freshly generated BENCH_serve.json to gate (optional)")
	apiPath := flag.String("api", "", "freshly generated BENCH_api.json to gate (optional)")
	emstPath := flag.String("emst", "", "freshly generated BENCH_emst.json to gate (optional)")
	oocPath := flag.String("ooc", "", "freshly generated BENCH_ooc.json to gate (optional)")
	strict := flag.Bool("strict", false, "exit non-zero (and annotate as errors) on regression")
	flag.Parse()

	g := &gate{out: os.Stdout, strict: *strict}

	fresh, err := readHeadline(*freshPath)
	if err != nil {
		fmt.Printf("::error ::benchgate: %v\n", err)
		os.Exit(1)
	}
	if fresh != nil {
		var base *hotHeadline
		if *basePath != "" {
			base, err = readHeadline(*basePath)
			if err != nil {
				// An unreadable baseline is not a regression — the first run
				// that generates one has nothing to compare against.
				fmt.Printf("::notice ::benchgate: no usable baseline (%v); checked acceptance floors only\n", err)
				base = nil
			}
			// A missing file yields nil; readHeadline already printed the
			// notice.
		}
		g.gateHot(fresh, base)
	}

	if *scalePath != "" {
		scale, err := readScale(*scalePath)
		if err != nil {
			fmt.Printf("::error ::benchgate: %v\n", err)
			os.Exit(1)
		}
		if scale != nil {
			g.gateScale(scale)
		}
	}
	if *servePath != "" {
		serve, err := readServe(*servePath)
		if err != nil {
			fmt.Printf("::error ::benchgate: %v\n", err)
			os.Exit(1)
		}
		if serve != nil {
			g.gateServe(serve)
		}
	}
	if *apiPath != "" {
		api, err := readAPI(*apiPath)
		if err != nil {
			fmt.Printf("::error ::benchgate: %v\n", err)
			os.Exit(1)
		}
		if api != nil {
			g.gateAPI(api)
		}
	}
	if *emstPath != "" {
		emst, err := readEmst(*emstPath)
		if err != nil {
			fmt.Printf("::error ::benchgate: %v\n", err)
			os.Exit(1)
		}
		if emst != nil {
			g.gateEmst(emst)
		}
	}
	if *oocPath != "" {
		ooc, err := readOoc(*oocPath)
		if err != nil {
			fmt.Printf("::error ::benchgate: %v\n", err)
			os.Exit(1)
		}
		if ooc != nil {
			g.gateOoc(ooc)
		}
	}

	if !g.regressed && !g.hardFail {
		if fresh != nil {
			fmt.Printf("benchgate: ok (speedup %.2fx >= %.2f, alloc ratio %.1fx >= %.1f)\n",
				fresh.Headline2DGridSpeedup, floorSpeedup*grace, fresh.HeadlineAllocRatio, floorAllocRatio*grace)
		} else {
			fmt.Println("benchgate: ok (hot report missing, floors skipped)")
		}
	}
	if g.hardFail || (g.regressed && *strict) {
		os.Exit(1)
	}
}

// gateHot checks the hot-path ratios against their acceptance floors and,
// when base is non-nil, against the committed baseline.
func (g *gate) gateHot(fresh, base *hotHeadline) {
	g.check("headline_2d_grid_speedup", fresh.Headline2DGridSpeedup, floorSpeedup, "acceptance floor")
	g.check("headline_alloc_ratio", fresh.HeadlineAllocRatio, floorAllocRatio, "acceptance floor")
	switch {
	case base == nil:
	case base.Threads != fresh.Threads:
		// A baseline measured at a different worker count is not comparable
		// even on ratio metrics (parallel overheads scale with it); refuse
		// it rather than let a thread-count change masquerade as a perf
		// change in either direction.
		fmt.Fprintf(g.out, "::notice ::benchgate: baseline recorded at threads=%d but fresh report at threads=%d; thread-mismatched baselines are not comparable, checked acceptance floors only\n",
			base.Threads, fresh.Threads)
	default:
		g.check("headline_2d_grid_speedup", fresh.Headline2DGridSpeedup, base.Headline2DGridSpeedup, "committed baseline")
		g.check("headline_alloc_ratio", fresh.HeadlineAllocRatio, base.HeadlineAllocRatio, "committed baseline")
	}
}

func (g *gate) gateScale(scale *scaleHeadline) {
	if len(scale.ThreadSweep) < 2 {
		g.fail("scale: thread sweep covers %d worker count(s); the scaling report requires at least two", len(scale.ThreadSweep))
	}
	if scale.NumCPU <= 1 {
		fmt.Fprintf(g.out, "::notice ::scale: runner has %d CPU; self-relative scaling floor (%.1fx) not applicable, skipped\n",
			scale.NumCPU, floorScaleSpeedup)
	} else if scale.TopSelfSpeedup < floorScaleSpeedup*grace {
		g.warn("scale: top self-relative speedup %.2fx at %d threads (%d CPUs), more than 10%% below the %.1fx floor",
			scale.TopSelfSpeedup, scale.ThreadSweep[len(scale.ThreadSweep)-1], scale.NumCPU, floorScaleSpeedup)
	} else {
		fmt.Fprintf(g.out, "benchgate: scale ok (self-relative %.2fx at %d threads on %d CPUs)\n",
			scale.TopSelfSpeedup, scale.ThreadSweep[len(scale.ThreadSweep)-1], scale.NumCPU)
	}
	// Sampled-core acceptance, per dataset: among the rows at frac <=
	// ceilSampledFrac, the accurate ones (ARI >= floor) must include a
	// >= 2x clustering-phase speedup. No accurate row at all is a hard
	// error — speed without fidelity is not an approximation.
	bestByDS := map[string]float64{}
	for _, row := range scale.Sampled {
		if row.Frac > ceilSampledFrac {
			continue
		}
		if _, seen := bestByDS[row.Dataset]; !seen {
			bestByDS[row.Dataset] = -1
		}
		if row.ARI >= floorSampledARI && row.Speedup > bestByDS[row.Dataset] {
			bestByDS[row.Dataset] = row.Speedup
		}
	}
	if len(bestByDS) == 0 {
		g.fail("scale: no sampled-core rows at frac <= 0.1 in the report")
	}
	for ds, best := range bestByDS {
		switch {
		case best < 0:
			g.fail("scale: %s: no sampled-core row with ARI >= %.2f vs exact (frac <= %.1f)",
				ds, floorSampledARI, ceilSampledFrac)
		case best < floorSampledSpeedup*grace:
			g.warn("scale: %s: best accurate sampled-core speedup %.2fx, more than 10%% below the %.1fx floor",
				ds, best, floorSampledSpeedup)
		default:
			fmt.Fprintf(g.out, "benchgate: scale sampled ok (%s: %.2fx at ARI >= %.2f)\n", ds, best, floorSampledARI)
		}
	}
}

func (g *gate) gateServe(serve *serveHeadline) {
	// Correctness invariants: hard errors regardless of -strict.
	if !serve.RecoveredEqual {
		g.fail("serve: a run after a cancelled run diverged from the baseline (recovered_equal=false)")
	}
	if !serve.BudgetConformant {
		g.fail("serve: engine worker usage exceeded the shared budget (budget_conformant=false)")
	}
	switch {
	case serve.CancelledMidCluster == 0:
		fmt.Fprintf(g.out, "::notice ::serve: no trial was cancelled mid-run at n=%d; latency floor not exercised\n", serve.N)
	case time.Duration(serve.CancelLatencyMaxNS) > floorCancelLatency:
		g.warn("serve: cancellation latency max %v exceeds the %v acceptance floor",
			time.Duration(serve.CancelLatencyMaxNS), floorCancelLatency)
	default:
		fmt.Fprintf(g.out, "benchgate: serve ok (cancel latency max %v <= %v over %d trials, recovery equal, budget conformant)\n",
			time.Duration(serve.CancelLatencyMaxNS), floorCancelLatency, serve.CancelledMidCluster)
	}
}

func (g *gate) gateAPI(api *apiHeadline) {
	// Invariants of the serving contract: hard errors regardless of
	// -strict. Backpressure (429s) is designed behavior; anything else
	// failing is not.
	if !api.BudgetConformant {
		g.fail("api: engine worker usage exceeded the shared budget under HTTP load (budget_conformant=false)")
	}
	if !api.RetryAfterAlways {
		g.fail("api: a 429/503 response was missing its Retry-After header (retry_after_always=false)")
	}
	if api.ErrorsOther > 0 {
		g.fail("api: %d requests failed outside the designed 429/503 backpressure", api.ErrorsOther)
	}
	if !api.DrainedCleanly {
		g.fail("api: graceful drain did not complete (drained_cleanly=false)")
	}
	if api.Sessions < floorAPISessions {
		g.warn("api: %d concurrent sessions, below the %d-session load floor", api.Sessions, floorAPISessions)
	}
	if time.Duration(api.QueueP99NS) > ceilAPIQueueP99 {
		g.warn("api: queue-wait p99 %v exceeds the %v ceiling", time.Duration(api.QueueP99NS), ceilAPIQueueP99)
	}
	if time.Duration(api.LatencyP99NS) > ceilAPIE2EP99 {
		g.warn("api: end-to-end p99 %v exceeds the %v ceiling", time.Duration(api.LatencyP99NS), ceilAPIE2EP99)
	}
	if api.BudgetConformant && api.RetryAfterAlways && api.ErrorsOther == 0 && api.DrainedCleanly {
		fmt.Fprintf(g.out, "benchgate: api ok (%d sessions, %d requests, %d runs, 429 rate %.1f%%, queue p99 %v, e2e p99 %v)\n",
			api.Sessions, api.Requests, api.RunsCompleted, 100*api.Rate429,
			time.Duration(api.QueueP99NS).Round(time.Microsecond),
			time.Duration(api.LatencyP99NS).Round(time.Microsecond))
	}
}

func (g *gate) gateEmst(emst *emstHeadline) {
	// Correctness invariant: every cut label-permutation-equal to its
	// from-scratch run. A fast sweep that answers a different question
	// is not a result; hard error regardless of -strict.
	if !emst.QueriesEqual {
		g.fail("emst: a hierarchy cut diverged from its from-scratch run (queries_equal=false)")
	}
	if emst.AmortizationRatio < floorEmstAmortization*grace {
		g.warn("emst: sweep amortization %.2fx, more than 10%% below the %.1fx acceptance floor",
			emst.AmortizationRatio, floorEmstAmortization)
	} else if emst.QueriesEqual {
		fmt.Fprintf(g.out, "benchgate: emst ok (amortization %.2fx >= %.2f at n=%d, all cuts equal)\n",
			emst.AmortizationRatio, floorEmstAmortization*grace, emst.N)
	}
}

func (g *gate) gateOoc(ooc *oocHeadline) {
	// All three acceptance criteria are hard errors regardless of -strict:
	// an out-of-core mode that changes answers, never leaves RAM-scale, or
	// maps past its budget has not earned the name.
	ok := true
	if !ooc.LabelsPermEqual {
		g.fail("ooc: spill labels were not permutation-equal to the in-RAM run (labels_perm_equal=false)")
		ok = false
	}
	if float64(ooc.DatasetBytes) < floorOocDatasetRatio*float64(ooc.BudgetBytes) {
		g.fail("ooc: dataset (%d bytes) is under %.0fx the %d-byte residency budget; the spill path was not meaningfully exercised",
			ooc.DatasetBytes, floorOocDatasetRatio, ooc.BudgetBytes)
		ok = false
	}
	if float64(ooc.PeakResidentBytes) > ceilOocPeakRatio*float64(ooc.BudgetBytes) {
		g.fail("ooc: peak mapped window %d bytes exceeds %.2fx the %d-byte residency budget",
			ooc.PeakResidentBytes, ceilOocPeakRatio, ooc.BudgetBytes)
		ok = false
	}
	if ooc.InRAMWallNS > 0 && float64(ooc.OOCWallNS) > ceilOocWallRatio*float64(ooc.InRAMWallNS) {
		g.warn("ooc: spill run took %v vs %v in-RAM, over the %gx soft ceiling",
			time.Duration(ooc.OOCWallNS), time.Duration(ooc.InRAMWallNS), ceilOocWallRatio)
		ok = false
	}
	if ok {
		fmt.Fprintf(g.out, "benchgate: ooc ok (n=%d, dataset %.1fx budget, peak window %.2fx budget, spill wall %.2fx in-RAM, labels equal)\n",
			ooc.N, float64(ooc.DatasetBytes)/float64(ooc.BudgetBytes),
			float64(ooc.PeakResidentBytes)/float64(ooc.BudgetBytes),
			float64(ooc.OOCWallNS)/float64(ooc.InRAMWallNS))
	}
}

// missingNotice reports a plainly absent report file as a skipped gate. Only
// files that exist but cannot be read or parsed are errors.
func missingNotice(path string, err error) bool {
	if os.IsNotExist(err) {
		fmt.Printf("::notice ::benchgate: %s not found; gate skipped\n", path)
		return true
	}
	return false
}

func readScale(path string) (*scaleHeadline, error) {
	data, err := os.ReadFile(path)
	if missingNotice(path, err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s scaleHeadline
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.NumCPU == 0 || s.TopSelfSpeedup == 0 {
		return nil, fmt.Errorf("%s: missing scale metrics", path)
	}
	return &s, nil
}

func readAPI(path string) (*apiHeadline, error) {
	data, err := os.ReadFile(path)
	if missingNotice(path, err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var a apiHeadline
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Sessions == 0 || a.Requests == 0 {
		return nil, fmt.Errorf("%s: missing api metrics", path)
	}
	return &a, nil
}

func readEmst(path string) (*emstHeadline, error) {
	data, err := os.ReadFile(path)
	if missingNotice(path, err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var e emstHeadline
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if e.N == 0 || e.AmortizationRatio == 0 {
		return nil, fmt.Errorf("%s: missing emst metrics", path)
	}
	return &e, nil
}

func readOoc(path string) (*oocHeadline, error) {
	data, err := os.ReadFile(path)
	if missingNotice(path, err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var o oocHeadline
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if o.N == 0 || o.DatasetBytes == 0 || o.BudgetBytes == 0 {
		return nil, fmt.Errorf("%s: missing ooc metrics", path)
	}
	return &o, nil
}

func readServe(path string) (*serveHeadline, error) {
	data, err := os.ReadFile(path)
	if missingNotice(path, err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s serveHeadline
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.N == 0 {
		return nil, fmt.Errorf("%s: missing serve metrics", path)
	}
	return &s, nil
}

func readHeadline(path string) (*hotHeadline, error) {
	data, err := os.ReadFile(path)
	if missingNotice(path, err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var h hotHeadline
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if h.Headline2DGridSpeedup == 0 || h.HeadlineAllocRatio == 0 {
		return nil, fmt.Errorf("%s: missing headline metrics", path)
	}
	return &h, nil
}
