package main

import (
	"fmt"
	"runtime"
	"time"

	"pdbscan"
	"pdbscan/internal/metrics"
)

// scaleSeries is one method's scaling curve: clustering-phase latency at
// each swept worker count on a shared prepared Clusterer.
type scaleSeries struct {
	Method string `json:"method"`
	// ThreadNS[i] is the measured run at ThreadSweep[i] workers (GOMAXPROCS
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

// scaleReport is the BENCH_scale.json schema: multi-core scaling curves per
// method, plus the sampled-core accuracy/speedup trade-off rows benchgate
// -scale gates. NumCPU is recorded so the gate can tell a regression from a
// machine that cannot scale (one hardware CPU).
type scaleReport struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	D       int     `json:"d"`
	Eps     float64 `json:"eps"`
	MinPts  int     `json:"min_pts"`
	Seed    int64   `json:"seed"`
	NumCPU  int     `json:"num_cpu"`

	ThreadSweep      []int         `json:"thread_sweep"`
	BestSerialNS     int64         `json:"best_serial_ns"`
	BestSerialMethod string        `json:"best_serial_method"`
	Series           []scaleSeries `json:"series"`
	// TopSelfSpeedup is the best self-relative speedup at the top of the
	// sweep across all series — the headline the scaling floor gates (skipped
	// when NumCPU == 1: a single hardware CPU cannot speed itself up).
	TopSelfSpeedup float64 `json:"top_self_speedup"`

	Sampled []sampledRow `json:"sampled"`
}

// expScale measures multi-core scaling (1..NumCPU workers, self-relative and
// vs the best serial run) and the sampled-core
// approximate mode (DBSCAN++: speedup and ARI/NMI vs exact per dataset).
// With -json it records BENCH_scale.json for cmd/benchgate -scale.
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

	rep := scaleReport{
		Dataset: "ss-varden-2d", N: pts.N, D: pts.D,
		Eps: eps, MinPts: minPts, Seed: o.seed,
		NumCPU: runtime.NumCPU(), ThreadSweep: sweep,
	}

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
		pts.N, eps, minPts, rep.NumCPU),
		"method", "threads", "run", "self-speedup")
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
		if rep.BestSerialNS == 0 || s.ThreadNS[0] < rep.BestSerialNS {
			rep.BestSerialNS = s.ThreadNS[0]
			rep.BestSerialMethod = string(m)
		}
		rep.Series = append(rep.Series, s)
	}
	for i := range rep.Series {
		s := &rep.Series[i]
		for _, ns := range s.ThreadNS {
			s.VsBestSerial = append(s.VsBestSerial, float64(rep.BestSerialNS)/float64(ns))
		}
		if top := s.SelfSpeedup[len(s.SelfSpeedup)-1]; top > rep.TopSelfSpeedup {
			rep.TopSelfSpeedup = top
		}
	}
	tbl.print()
	fmt.Printf("\nbest serial: %s at %v; top self-relative speedup at %d threads: %.2fx (numCPU=%d)\n",
		rep.BestSerialMethod, time.Duration(rep.BestSerialNS).Round(time.Millisecond),
		sweep[len(sweep)-1], rep.TopSelfSpeedup, rep.NumCPU)

	rep.Sampled = sampledRows(o)

	if o.jsonPath != "" {
		writeJSON(o.jsonPath, rep)
		fmt.Printf("wrote %s\n", o.jsonPath)
	}
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
