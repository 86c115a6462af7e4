package main

import (
	"fmt"
	"runtime"
	"time"

	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// hotRun is one measured configuration of the hot-path experiment.
type hotRun struct {
	Method string `json:"method"`
	D      int    `json:"d"`
	N      int    `json:"n"`
	// Mode is one of:
	//   - "before": generic-D distance loops in the pipeline and no scratch
	//     arena — the unspecialized fallback the kernels replace (the
	//     quadtree and k-d tree keep their own build-time kernels, so the
	//     *-qt rows isolate mostly the arena);
	//   - "after": dimension-specialized kernels + pooled scratch — the
	//     steady state of repeated Clusterer.Run calls.
	// Both modes read the same cell-major payload.
	Mode        string  `json:"mode"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Clusters    int     `json:"clusters"`
}

// hotReport is the BENCH_hot.json schema: before/after clustering-phase
// latency and allocation counts across methods and dimensionalities, over
// prebuilt cell structures (grid construction excluded — it is paid once per
// Clusterer, not per run).
type hotReport struct {
	Seed    int64    `json:"seed"`
	Threads int      `json:"threads"`
	Runs    []hotRun `json:"runs"`
	// Headline2DGridSpeedup is before/after ns-per-op for 2d-grid-bcp at the
	// full point count (the paper's fastest 2D method — the hot path the
	// kernels and arena target).
	Headline2DGridSpeedup float64 `json:"headline_2d_grid_speedup"`
	// HeadlineAllocRatio is seed-vs-now allocs-per-op for the same
	// configuration: how many fewer heap allocations a steady-state
	// Clusterer.Run makes than the pre-optimization implementation (see
	// seedAllocsPerOp). The in-run "before" mode cannot reproduce the seed's
	// allocation behavior — its per-pair and per-cell allocations were
	// removed structurally, not by a toggle — so the seed count is pinned
	// from a direct measurement instead.
	HeadlineAllocRatio float64 `json:"headline_alloc_ratio"`
	// SeedAllocsPerOp echoes the pinned seed measurement the ratio is
	// computed against.
	SeedAllocsPerOp float64 `json:"seed_allocs_per_op"`
	// ModeAllocRatio is the in-run before/after allocs-per-op ratio for the
	// headline configuration (generic+unpooled vs specialized+arena): the
	// part of the allocation win the arena alone accounts for.
	ModeAllocRatio float64 `json:"mode_alloc_ratio"`
}

// seedAllocsPerOp is the measured allocs-per-op of a repeated, steady-state
// Clusterer.Run before this optimization pass (commit 371f3d5: generic
// distance loops, per-run scratch rebuild, per-pair BCP filter allocations),
// on exactly the headline configuration: ss-varden-2d n=100k seed=1,
// eps=1000, minPts=100, method 2d-grid-bcp, Workers=1, measured
// with testing.AllocsPerRun. Allocation counts are deterministic for a fixed
// configuration and worker budget (they do not depend on machine speed), so
// the pinned value remains comparable across hosts. Per-op allocations are
// dominated by per-pair/per-cell work and therefore roughly scale with n;
// comparing against a larger -n only widens the ratio.
const seedAllocsPerOp = 4285

// hotConfig is one method x dimension cell of the experiment matrix.
type hotConfig struct {
	name  string
	d     int
	scale int // divisor applied to o.n (non-headline cells run smaller)
	mark  core.MarkStrategy
	graph core.GraphStrategy
	rho   float64
}

// expHot measures the clustering phase (MarkCore + ClusterCore +
// ClusterBorder over prepared cells) in two modes: "before" runs the
// generic-D distance loops with no arena (every run allocates its scratch),
// and "after" runs the dimension-specialized kernels with a warmed arena
// (the steady state of repeated Clusterer.Run). Results of both modes are
// asserted identical on every configuration. With -json it records
// BENCH_hot.json.
func expHot(o options) {
	const minPts = 100
	threads := effectiveThreads(o.threads)
	ex := parallel.NewPool(o.threads)
	rep := hotReport{Seed: o.seed, Threads: threads}

	matrix := []hotConfig{
		{name: "2d-grid-bcp", d: 2, scale: 1, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "2d-grid-usec", d: 2, scale: 5, mark: core.MarkScan, graph: core.GraphUSEC},
		{name: "exact", d: 2, scale: 5, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "exact-qt", d: 2, scale: 5, mark: core.MarkQuadtree, graph: core.GraphQuadtree},
		{name: "approx", d: 2, scale: 5, mark: core.MarkScan, graph: core.GraphApprox, rho: 0.01},
		{name: "exact", d: 3, scale: 5, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "exact-qt", d: 3, scale: 5, mark: core.MarkQuadtree, graph: core.GraphQuadtree},
		{name: "approx", d: 3, scale: 5, mark: core.MarkScan, graph: core.GraphApprox, rho: 0.01},
		{name: "exact", d: 5, scale: 5, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "approx", d: 5, scale: 5, mark: core.MarkScan, graph: core.GraphApprox, rho: 0.01},
	}

	tbl := newTable(fmt.Sprintf("hot path: minPts=%d threads=%d (before = generic kernel, no arena; after = specialized + pooled)", minPts, threads),
		"method", "d", "n", "before", "after", "speedup", "allocs before", "allocs after", "ratio")

	// Cell structures are shared per (d, n): they depend only on points/eps.
	type cellKey struct{ d, n int }
	cellCache := map[cellKey]*grid.Cells{}

	for _, hc := range matrix {
		n := o.n / hc.scale
		if n < 10000 {
			n = min(10000, o.n)
		}
		key := cellKey{hc.d, n}
		cells, ok := cellCache[key]
		if !ok {
			pts := loadDataset(fmt.Sprintf("ss-varden-%dd", hc.d), n, o.seed)
			shuffleRows(pts, uint64(o.seed))
			eps := hotEps(hc.d)
			cells = grid.BuildGrid(ex, pts, eps)
			if pts.D <= 3 {
				cells.ComputeNeighborsEnum(ex)
			} else {
				cells.ComputeNeighborsKD(ex)
			}
			cellCache[key] = cells
		}

		params := core.Params{
			MinPts: minPts, Rho: hc.rho, Mark: hc.mark, Graph: hc.graph, Exec: ex,
		}
		before := measureHot(cells, params, true, nil)
		after := measureHot(cells, params, false, core.NewArena())
		if before.Clusters != after.Clusters {
			fatalf("hot: %s %dd cluster count diverged: before %d, after %d",
				hc.name, hc.d, before.Clusters, after.Clusters)
		}
		before.Method, before.D, before.N, before.Mode = hc.name, hc.d, n, "before"
		after.Method, after.D, after.N, after.Mode = hc.name, hc.d, n, "after"
		rep.Runs = append(rep.Runs, before, after)

		speedup := float64(before.NsPerOp) / float64(after.NsPerOp)
		ratio := before.AllocsPerOp / after.AllocsPerOp
		if hc.name == "2d-grid-bcp" {
			rep.Headline2DGridSpeedup = speedup
			rep.SeedAllocsPerOp = seedAllocsPerOp
			rep.HeadlineAllocRatio = seedAllocsPerOp / after.AllocsPerOp
			rep.ModeAllocRatio = ratio
		}
		tbl.add(hc.name, fmt.Sprint(hc.d), fmt.Sprint(n),
			fmtDur(time.Duration(before.NsPerOp)), fmtDur(time.Duration(after.NsPerOp)),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.0f", before.AllocsPerOp), fmt.Sprintf("%.0f", after.AllocsPerOp),
			fmt.Sprintf("%.1fx", ratio))
	}
	tbl.print()
	fmt.Printf("\nheadline (2d-grid-bcp, n=%d): %.2fx clustering-phase speedup; %.0fx fewer allocs/op than the seed implementation (%.0f -> measured above), %.1fx vs the in-run generic/unpooled mode\n",
		o.n, rep.Headline2DGridSpeedup, rep.HeadlineAllocRatio, rep.SeedAllocsPerOp, rep.ModeAllocRatio)

	if o.jsonPath != "" {
		writeJSON(o.jsonPath, rep)
		fmt.Printf("wrote %s\n", o.jsonPath)
	}
}

// shuffleRows deterministically permutes the dataset's row order
// (Fisher-Yates over a splitmix64 stream). The synthetic generators emit
// points cluster-by-cluster; real ingestion orders carry no such
// correlation between array position and space. The shuffle restores that —
// the order of points within each cell, and so the scan order of every
// early-terminating kernel, follows the input order — and both modes see
// the identical permuted input.
func shuffleRows(pts geom.Points, seed uint64) {
	state := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	d := pts.D
	for i := pts.N - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		for k := 0; k < d; k++ {
			pts.Data[i*d+k], pts.Data[j*d+k] = pts.Data[j*d+k], pts.Data[i*d+k]
		}
	}
}

// hotEps returns the experiment eps per dimension (matched to the seed
// spreader's coordinate range so cluster structure is non-trivial).
func hotEps(d int) float64 {
	switch d {
	case 2:
		return 1000
	case 3:
		return 2000
	default:
		return 4000
	}
}

// measureHot times repeated core.Run calls over prepared cells and reports
// per-op latency and allocation counts. One warmup run is excluded (it pays
// lazy builds and, in after mode, the arena's first-fill); measurement then
// loops until both a minimum op count and a minimum wall time are reached.
func measureHot(cells *grid.Cells, params core.Params, forceGeneric bool, arena *core.Arena) hotRun {
	params.ForceGenericKernel = forceGeneric
	params.Arena = arena
	res, err := core.Run(cells, params)
	if err != nil {
		fatalf("hot: %v", err)
	}
	clusters := res.NumClusters

	const minOps = 3
	const minWall = 1500 * time.Millisecond
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ops := 0
	for ops < minOps || time.Since(start) < minWall {
		if _, err := core.Run(cells, params); err != nil {
			fatalf("hot: %v", err)
		}
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return hotRun{
		NsPerOp:     elapsed.Nanoseconds() / int64(ops),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		Clusters:    clusters,
	}
}
