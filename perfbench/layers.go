package main

import (
	"fmt"

	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/metrics"
	"pdbscan/internal/parallel"
)

// replayGrid builds the grid cell structure the way a Clusterer does for
// d <= 3 — BuildGrid, then ComputeNeighborsEnum — timing each step.
func replayGrid(l *ledger, pool *parallel.Pool, pts geom.Points, eps float64) *grid.Cells {
	var cells *grid.Cells
	d, _ := clock(func() error {
		cells = grid.BuildGrid(pool, pts, eps)
		return nil
	})
	l.addDur("grid.build_s", d)
	d, _ = clock(func() error {
		cells.ComputeNeighborsEnum(pool)
		return nil
	})
	l.addDur("grid.neighbors_s", d)
	entries := 0
	for _, nb := range cells.Neighbors {
		entries += len(nb)
	}
	l.add("grid.cells", float64(cells.NumCells()))
	l.add("grid.neighbor_entries", float64(entries))
	return cells
}

// replayCore runs the clustering pipeline once with phase timings on,
// records each phase, and checks the result against ref. counts selects the
// run whose core-point and cluster counts are reported.
func replayCore(l *ledger, ref *metrics.BruteResult, p core.Params, run func(core.Params) (*core.Result, error), counts bool) error {
	var tm core.PhaseTimings
	p.Timings = &tm
	res, err := run(p)
	if !l.op(err) {
		return err
	}
	l.addDur("core.mark_s", tm.Mark)
	l.addDur("core.collect_s", tm.Collect)
	l.addDur("core.graph_s", tm.Graph)
	l.addDur("core.label_s", tm.Label)
	l.addDur("core.border_s", tm.Border)
	if tm.Merge > 0 {
		l.addDur("core.merge_s", tm.Merge)
	}
	if counts {
		n := 0
		for _, c := range res.Core {
			if c {
				n++
			}
		}
		l.add("core.core_points", float64(n))
		l.add("core.clusters", float64(res.NumClusters))
	}
	if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
		l.fail(fmt.Errorf("replayed pipeline at minPts %d: %w", p.MinPts, err))
	}
	return nil
}
