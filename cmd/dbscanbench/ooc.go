package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"pdbscan"
	"pdbscan/internal/benchreport"
)

// expOoc measures the out-of-core path end to end: write the dataset to a
// cell store, rerun with Spill under a residency budget of one quarter of the
// point payload, and compare wall clock and labels against the in-RAM run.
//
// peak_resident_bytes counts what MaxResidentBytes bounds: the largest single
// point-data window mapped at once. O(n) bookkeeping (labels, core flags,
// union-find, store metadata) stays heap-resident outside the budget;
// peak_rss_bytes is reported so that gap is visible, not hidden.
func expOoc(o options) {
	const dsName, eps, minPts = "uniform-2d", 2.0, 10
	pts := loadDataset(dsName, o.n, o.seed)
	datasetBytes := int64(pts.N) * int64(pts.D) * 8
	budget := datasetBytes / 4

	cfg := pdbscan.Config{MinPts: minPts, Workers: o.threads}

	// In-RAM reference: the ordinary monolithic run.
	ram, err := pdbscan.NewClustererFlat(pts.Data, pts.D, eps)
	if err != nil {
		fatalf("ooc: %v", err)
	}
	start := time.Now()
	want, err := ram.Run(cfg)
	if err != nil {
		fatalf("ooc: %v", err)
	}
	ramWall := time.Since(start)

	// Spill run: persist the store, reopen it, and run under the budget. 16
	// shards keep every halo window of the uniform dataset comfortably under
	// a quarter of the payload.
	dir, err := os.MkdirTemp("", "dbscanbench-ooc-")
	if err != nil {
		fatalf("ooc: %v", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "points.cellstore")
	const shards = 16
	if err := ram.WriteStore(path, shards); err != nil {
		fatalf("ooc: %v", err)
	}
	ooc, err := pdbscan.OpenStoreClusterer(path)
	if err != nil {
		fatalf("ooc: %v", err)
	}
	defer ooc.Close()
	cfg.Spill = true
	cfg.MaxResidentBytes = budget
	start = time.Now()
	got, err := ooc.Run(cfg)
	if err != nil {
		fatalf("ooc: %v", err)
	}
	oocWall := time.Since(start)
	stats := ooc.LastRunStats()

	permEqual := labelsPermEqual(want.Labels, got.Labels) &&
		boolsEqual(want.Core, got.Core) && want.NumClusters == got.NumClusters

	rep := benchreport.New("ooc", effectiveThreads(o.threads), map[string]any{
		"dataset": dsName, "n": pts.N, "d": pts.D, "eps": eps, "min_pts": minPts, "seed": o.seed,
	})
	rep.Metrics = map[string]float64{
		"shards":               float64(stats.Shards),
		"dataset_bytes":        float64(datasetBytes),
		"budget_bytes":         float64(budget),
		"in_ram_wall_ns":       float64(ramWall.Nanoseconds()),
		"ooc_wall_ns":          float64(oocWall.Nanoseconds()),
		"bytes_mapped":         float64(stats.BytesMapped),
		"peak_resident_bytes":  float64(stats.PeakResidentBytes),
		"shards_resident_peak": float64(stats.ShardsResidentPeak),
		"peak_rss_bytes":       float64(peakRSSBytes()),
		"labels_perm_equal":    benchreport.Bool(permEqual),
		"num_clusters":         float64(got.NumClusters),
		// The gated ratios: the dataset must dwarf the budget, the peak
		// window stay within it (up to the halo slack), and the spill run's
		// wall clock stay within a soft multiple of the in-RAM run.
		"dataset_budget_ratio": float64(datasetBytes) / float64(budget),
		"peak_window_ratio":    float64(stats.PeakResidentBytes) / float64(budget),
		"wall_ratio":           float64(oocWall) / float64(ramWall),
	}

	tbl := newTable(fmt.Sprintf("out-of-core vs in-RAM: %s n=%d eps=%g minPts=%d budget=%s",
		dsName, pts.N, eps, minPts, fmtBytes(budget)),
		"run", "wall", "peak window", "mapped total", "clusters")
	tbl.add("in-RAM", ramWall.Round(time.Millisecond).String(), "-", "-", fmt.Sprint(want.NumClusters))
	tbl.add("spill", oocWall.Round(time.Millisecond).String(),
		fmtBytes(stats.PeakResidentBytes), fmtBytes(stats.BytesMapped), fmt.Sprint(got.NumClusters))
	tbl.print()
	fmt.Printf("dataset %s = %.1fx budget; peak window %.2fx budget; widest halo %d/%d shards; labels perm-equal: %v\n",
		fmtBytes(datasetBytes), rep.Metrics["dataset_budget_ratio"], rep.Metrics["peak_window_ratio"],
		stats.ShardsResidentPeak, stats.Shards, permEqual)
	if !permEqual {
		fatalf("ooc: spill labels diverged from the in-RAM run")
	}
	writeReport(o, rep)
}

// labelsPermEqual reports whether two labelings agree up to a bijection of
// cluster ids (noise must match exactly).
func labelsPermEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	rev := map[int32]int32{}
	for i := range a {
		x, y := a[i], b[i]
		if (x < 0) != (y < 0) {
			return false
		}
		if x < 0 {
			continue
		}
		if v, ok := fwd[x]; ok && v != y {
			return false
		}
		if v, ok := rev[y]; ok && v != x {
			return false
		}
		fwd[x], rev[y] = y, x
	}
	return true
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// peakRSSBytes returns the process's peak resident set size. Informational
// only: Go's heap, the test harness, and page-cache behavior all land in it,
// so it is not what MaxResidentBytes bounds.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports ru_maxrss in KiB.
	return ru.Maxrss * 1024
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
