package main

import (
	"fmt"
	"runtime"
	"time"

	"pdbscan"
	"pdbscan/internal/benchreport"
	"pdbscan/internal/metrics"
)

// scaleSeries is one method's scaling curve: clustering-phase latency at
// each swept worker count on a shared prepared Clusterer.
type scaleSeries struct {
	Method string `json:"method"`
	// ThreadNS[i] is the measured run at thread_sweep[i] workers (GOMAXPROCS
	// pinned to the same count, so the runtime really uses that many CPUs).
	ThreadNS []int64 `json:"thread_ns"`
	// SelfSpeedup[i] = ThreadNS[0] / ThreadNS[i] (1-worker run of this series
	// as the base); VsBestSerial[i] uses the fastest 1-worker run across all
	// series instead, the paper's Figure 8 convention.
	SelfSpeedup  []float64 `json:"self_speedup"`
	VsBestSerial []float64 `json:"vs_best_serial"`
	Clusters     int       `json:"clusters"`
}

// sampledRow is one sampled-core (DBSCAN++) quality measurement: the
// clustering-phase latency and agreement of a sampled run against the exact
// run on the same prepared Clusterer.
type sampledRow struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Eps     float64 `json:"eps"`
	MinPts  int     `json:"min_pts"`
	Threads int     `json:"threads"` // effective worker count used
	Sampler string  `json:"sampler"`
	Frac    float64 `json:"frac"`
	Seed    int64   `json:"seed"`

	ExactNS   int64   `json:"exact_ns"`
	SampledNS int64   `json:"sampled_ns"`
	Speedup   float64 `json:"speedup"` // exact_ns / sampled_ns

	// Agreement of the sampled labeling with the exact one (noise treated as
	// per-point singletons, the convention both metrics share).
	ARI float64 `json:"ari"`
	NMI float64 `json:"nmi"`

	ExactClusters   int `json:"exact_clusters"`
	SampledClusters int `json:"sampled_clusters"`
}

// Sampled-core acceptance, per dataset: among the rows at a sample fraction
// <= sampledMaxFrac, the accurate ones (ARI >= sampledMinARI vs exact) must
// include one that clusters >= 2x faster. The report emits, per dataset, the
// accurate-row count and the best accurate speedup for cmd/benchgate to gate.
const (
	sampledMaxFrac = 0.1
	sampledMinARI  = 0.95
)

// expScale measures multi-core scaling (1..NumCPU workers, self-relative and
// vs the best serial run) and the sampled-core
// approximate mode (DBSCAN++: speedup and ARI/NMI vs exact per dataset).
// With -json it records BENCH_scale.json.
func expScale(o options) {
	const eps, minPts = 1000.0, 100
	pts := loadDataset("ss-varden-2d", o.n, o.seed)

	// Always sweep at least two worker counts: on a single-CPU machine the
	// second point documents (rather than hides) the absence of scaling, and
	// benchgate uses num_cpu to decide whether the floor applies.
	sweep := threadSweep()
	if len(sweep) < 2 {
		sweep = append(sweep, sweep[len(sweep)-1]*2)
	}

	rep := benchreport.New("scale", effectiveThreads(o.threads), map[string]any{
		"dataset": "ss-varden-2d", "n": pts.N, "d": pts.D, "eps": eps, "min_pts": minPts, "seed": o.seed,
		"thread_sweep": sweep,
	})
	rep.Metrics["thread_counts"] = float64(len(sweep))

	c, err := pdbscan.NewClustererFlat(pts.Data, pts.D, eps)
	if err != nil {
		fatalf("scale: %v", err)
	}
	if err := c.Prepare(pdbscan.Config{}); err != nil {
		fatalf("scale: %v", err)
	}

	// Clustering-phase timing: warm once per configuration (lazy structures,
	// pooled scratch), measure the second run under pinned GOMAXPROCS.
	measure := func(cfg pdbscan.Config, threads int) (time.Duration, *pdbscan.Result) {
		old := runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(old)
		cfg.Workers = threads
		if _, err := c.Run(cfg); err != nil {
			fatalf("scale: %v", err)
		}
		start := time.Now()
		res, err := c.Run(cfg)
		if err != nil {
			fatalf("scale: %v", err)
		}
		return time.Since(start), res
	}

	methods := []pdbscan.Method{pdbscan.Method2DGridBCP, pdbscan.MethodExact}

	tbl := newTable(fmt.Sprintf("multi-core scaling (clustering phase): n=%d eps=%g minPts=%d numCPU=%d",
		pts.N, eps, minPts, rep.Host.NumCPU),
		"method", "threads", "run", "self-speedup")
	var series []scaleSeries
	var bestSerialNS int64
	var bestSerialMethod string
	for _, m := range methods {
		s := scaleSeries{Method: string(m)}
		for _, th := range sweep {
			dur, res := measure(pdbscan.Config{MinPts: minPts, Method: m}, th)
			s.ThreadNS = append(s.ThreadNS, dur.Nanoseconds())
			s.Clusters = res.NumClusters
			tbl.add(string(m), fmt.Sprint(th), fmtDur(dur),
				fmtSpeedup(time.Duration(s.ThreadNS[0]), dur))
		}
		for _, ns := range s.ThreadNS {
			s.SelfSpeedup = append(s.SelfSpeedup, float64(s.ThreadNS[0])/float64(ns))
		}
		if bestSerialNS == 0 || s.ThreadNS[0] < bestSerialNS {
			bestSerialNS, bestSerialMethod = s.ThreadNS[0], string(m)
		}
		series = append(series, s)
	}
	// top_self_speedup is the best self-relative speedup at the top of the
	// sweep across all series: the headline the scaling floor gates (skipped
	// when num_cpu is 1, since one hardware CPU cannot speed itself up).
	var topSelf float64
	for i := range series {
		s := &series[i]
		for _, ns := range s.ThreadNS {
			s.VsBestSerial = append(s.VsBestSerial, float64(bestSerialNS)/float64(ns))
		}
		topSelf = max(topSelf, s.SelfSpeedup[len(s.SelfSpeedup)-1])
	}
	tbl.print()
	fmt.Printf("\nbest serial: %s at %v; top self-relative speedup at %d threads: %.2fx (numCPU=%d)\n",
		bestSerialMethod, time.Duration(bestSerialNS).Round(time.Millisecond),
		sweep[len(sweep)-1], topSelf, rep.Host.NumCPU)
	rep.Params["best_serial_method"] = bestSerialMethod
	rep.Metrics["best_serial_ns"] = float64(bestSerialNS)
	rep.Metrics["top_self_speedup"] = topSelf

	sampled := sampledRows(o)
	rep.Metrics["sampled_rows"] = 0
	for _, row := range sampled {
		if row.Frac > sampledMaxFrac {
			continue
		}
		rep.Metrics["sampled_rows"]++
		accurate := row.ARI >= sampledMinARI
		rep.Metrics["sampled_accurate_rows."+row.Dataset] += benchreport.Bool(accurate)
		if accurate {
			best := "sampled_best_speedup." + row.Dataset
			rep.Metrics[best] = max(rep.Metrics[best], row.Speedup)
		}
	}
	rep.Rows["series"], rep.Rows["sampled"] = series, sampled
	writeReport(o, rep)
}

// sampledRows measures the DBSCAN++ trade-off on the varden datasets: the
// clustering-phase speedup of computing core status only for a sample, and
// the agreement (ARI/NMI) of the resulting labeling with the exact run.
func sampledRows(o options) []sampledRow {
	// Quality rows run at a capped n: the greedy K-center sampler is
	// O(m * n), so the full -n of the scaling sweep would make it dominate
	// the experiment without changing the accuracy story.
	qn := o.n
	if qn > 200000 {
		qn = 200000
	}
	threads := effectiveThreads(o.threads)
	datasets := []struct {
		name   string
		eps    float64
		minPts int
		method pdbscan.Method
	}{
		{"ss-varden-2d", 1000, 100, pdbscan.Method2DGridBCP},
		{"ss-varden-3d", 2000, 100, pdbscan.MethodExact},
	}
	samplers := []struct {
		kind pdbscan.Sampler
		frac float64
	}{
		{pdbscan.SamplerUniform, 0.1},
		{pdbscan.SamplerUniform, 0.05},
		{pdbscan.SamplerKCenter, 0.05},
	}
	const seed = 5

	var rows []sampledRow
	for _, ds := range datasets {
		pts := loadDataset(ds.name, qn, o.seed)
		c, err := pdbscan.NewClustererFlat(pts.Data, pts.D, ds.eps)
		if err != nil {
			fatalf("scale: %v", err)
		}
		if err := c.Prepare(pdbscan.Config{Workers: o.threads}); err != nil {
			fatalf("scale: %v", err)
		}
		run := func(cfg pdbscan.Config) (time.Duration, *pdbscan.Result) {
			cfg.MinPts = ds.minPts
			cfg.Method = ds.method
			cfg.Workers = o.threads
			// Warm run: lazy structures, and for sampled configs the cached
			// mask — so the measured run is the clustering phase alone.
			if _, err := c.Run(cfg); err != nil {
				fatalf("scale: %v", err)
			}
			start := time.Now()
			res, err := c.Run(cfg)
			if err != nil {
				fatalf("scale: %v", err)
			}
			return time.Since(start), res
		}
		exactDur, exact := run(pdbscan.Config{})

		tbl := newTable(fmt.Sprintf("sampled-core (DBSCAN++) vs exact: %s n=%d eps=%g minPts=%d threads=%d (exact %v)",
			ds.name, qn, ds.eps, ds.minPts, threads, exactDur.Round(time.Millisecond)),
			"sampler", "frac", "run", "speedup", "ARI", "NMI", "clusters")
		for _, sp := range samplers {
			dur, res := run(pdbscan.Config{Sampler: sp.kind, SampleFrac: sp.frac, SampleSeed: seed})
			row := sampledRow{
				Dataset: ds.name, N: qn, Eps: ds.eps, MinPts: ds.minPts,
				Threads: threads, Sampler: string(sp.kind), Frac: sp.frac, Seed: seed,
				ExactNS: exactDur.Nanoseconds(), SampledNS: dur.Nanoseconds(),
				Speedup:         float64(exactDur.Nanoseconds()) / float64(dur.Nanoseconds()),
				ARI:             metrics.AdjustedRandIndex(exact.Labels, res.Labels),
				NMI:             metrics.NormalizedMutualInfo(exact.Labels, res.Labels),
				ExactClusters:   exact.NumClusters,
				SampledClusters: res.NumClusters,
			}
			rows = append(rows, row)
			tbl.add(row.Sampler, fmt.Sprintf("%.2f", row.Frac), fmtDur(dur),
				fmtSpeedup(exactDur, dur),
				fmt.Sprintf("%.3f", row.ARI), fmt.Sprintf("%.3f", row.NMI),
				fmt.Sprintf("%d/%d", row.SampledClusters, row.ExactClusters))
		}
		tbl.print()
	}
	return rows
}
