package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"pdbscan"
	"pdbscan/internal/benchreport"
	"pdbscan/internal/dataset"
)

// streamTick is one measured tick of the sliding-window replay.
type streamTick struct {
	IncrementalNS int64 `json:"incremental_ns"`
	ScratchNS     int64 `json:"scratch_ns"`
	Cells         int   `json:"cells"`
	DirtyCells    int   `json:"dirty_cells"`
	Clusters      int   `json:"clusters"`
}

// expStream replays a sliding window over the drift-2d stream, measuring the
// per-tick latency of StreamingClusterer.Run against from-scratch Cluster on
// the identical window, and (with -json) records BENCH_stream.json.
func expStream(o options) {
	window := o.n / 5
	if window < 2000 {
		window = 2000
	}
	batch := window / 100
	const eps, minPts = 4.0, 10
	ticks := 20

	pts := dataset.DriftStream(dataset.DriftStreamConfig{N: window + (ticks+1)*batch, D: 2, Seed: o.seed})
	rows := make([][]float64, pts.N)
	for i := range rows {
		rows[i] = pts.At(i)
	}

	s, err := pdbscan.NewStreamingClusterer(2, eps)
	if err != nil {
		fatalf("stream: %v", err)
	}
	cfg := pdbscan.Config{MinPts: minPts, Method: pdbscan.Method2DGridBCP, Workers: o.threads}
	if _, err := s.Insert(rows[:window]); err != nil {
		fatalf("stream: %v", err)
	}
	if _, err := s.Run(cfg); err != nil {
		fatalf("stream: %v", err)
	}

	rep := benchreport.New("stream", effectiveThreads(o.threads), map[string]any{
		"dataset": "drift-2d", "n": o.n, "seed": o.seed,
		"window": window, "batch": batch, "eps": eps, "min_pts": minPts,
	})
	var tickRows []streamTick
	tbl := newTable(fmt.Sprintf("streaming ticks: window=%d batch=%d eps=%g minPts=%d", window, batch, eps, minPts),
		"tick", "dirty/cells", "incremental", "scratch", "speedup")
	next := window
	var incSum, scrSum time.Duration
	for tick := 0; tick < ticks; tick++ {
		if _, err := s.Insert(rows[next : next+batch]); err != nil {
			fatalf("stream: %v", err)
		}
		next += batch
		s.Window(window)

		start := time.Now()
		res, err := s.Run(cfg)
		if err != nil {
			fatalf("stream: %v", err)
		}
		incDur := time.Since(start)
		stats := s.LastRunStats()

		cur := make([][]float64, 0, window)
		for _, id := range s.IDs() {
			row, _ := s.Point(id)
			cur = append(cur, row)
		}
		scratchCfg := cfg
		scratchCfg.Eps = eps
		start = time.Now()
		if _, err := pdbscan.Cluster(cur, scratchCfg); err != nil {
			fatalf("stream: %v", err)
		}
		scrDur := time.Since(start)

		incSum += incDur
		scrSum += scrDur
		tickRows = append(tickRows, streamTick{
			IncrementalNS: incDur.Nanoseconds(),
			ScratchNS:     scrDur.Nanoseconds(),
			Cells:         stats.NumCells,
			DirtyCells:    stats.DirtyCells,
			Clusters:      res.NumClusters,
		})
		tbl.add(fmt.Sprint(tick),
			fmt.Sprintf("%d/%d", stats.DirtyCells, stats.NumCells),
			incDur.Round(time.Microsecond).String(),
			scrDur.Round(time.Microsecond).String(),
			fmtSpeedup(scrDur, incDur))
	}
	tbl.print()

	incMean := incSum.Nanoseconds() / int64(ticks)
	scratchMean := scrSum.Nanoseconds() / int64(ticks)
	speedup := float64(scratchMean) / float64(incMean)
	incNS := make([]int64, 0, ticks)
	dirtySum, cellSum := 0, 0
	for _, tk := range tickRows {
		incNS = append(incNS, tk.IncrementalNS)
		dirtySum += tk.DirtyCells
		cellSum += tk.Cells
	}
	sort.Slice(incNS, func(i, j int) bool { return incNS[i] < incNS[j] })
	dirtyFrac := float64(dirtySum) / float64(cellSum)
	rep.Metrics["incremental_mean_ns"] = float64(incMean)
	rep.Metrics["incremental_p95_ns"] = float64(incNS[(len(incNS)*95)/100])
	rep.Metrics["scratch_mean_ns"] = float64(scratchMean)
	rep.Metrics["speedup"] = speedup
	rep.Metrics["dirty_cell_fraction"] = dirtyFrac
	rep.Rows["ticks"] = tickRows
	fmt.Printf("\nmean tick: incremental %v vs scratch %v -> %.2fx speedup at %.1f%% dirty cells\n",
		time.Duration(incMean).Round(time.Microsecond),
		time.Duration(scratchMean).Round(time.Microsecond),
		speedup, 100*dirtyFrac)

	// From-scratch timings of the standard methods on the final window, so
	// the JSON also tracks the non-streaming perf trajectory.
	curPts := make([]float64, 0, window*2)
	for _, id := range s.IDs() {
		row, _ := s.Point(id)
		curPts = append(curPts, row...)
	}
	for _, m := range []pdbscan.Method{pdbscan.MethodExact, pdbscan.MethodExactQt, pdbscan.Method2DGridBCP} {
		start := time.Now()
		if _, err := pdbscan.ClusterFlat(curPts, 2, pdbscan.Config{
			Eps: eps, MinPts: minPts, Method: m, Workers: o.threads,
		}); err != nil {
			fatalf("stream: %v", err)
		}
		rep.Metrics["method_scratch_ns."+string(m)] = float64(time.Since(start).Nanoseconds())
	}
	writeReport(o, rep)
}

// writeReport writes rep to the -json path, when one was given.
func writeReport(o options, rep *benchreport.Report) {
	if o.jsonPath == "" {
		return
	}
	if err := benchreport.Write(o.jsonPath, rep); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", o.jsonPath)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
