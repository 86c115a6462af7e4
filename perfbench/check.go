package main

import (
	"fmt"
	"math"
	"slices"

	"pdbscan"
	"pdbscan/internal/metrics"
	"pdbscan/serve"
)

// refOf turns an in-process result into the reference form that
// metrics.SameDBSCANResult compares against: each point's full cluster set.
// The sets share one backing array, so a reference held for a whole run adds
// few objects for the collector to mark during the timed operations.
func refOf(r *pdbscan.Result) *metrics.BruteResult {
	n := len(r.Labels)
	flat := make([]int, 0, n+len(r.Border))
	ends := make([]int, n)
	for i, lab := range r.Labels {
		if set, ok := r.Border[int32(i)]; ok {
			for _, c := range set {
				flat = append(flat, int(c))
			}
		} else if lab >= 0 {
			flat = append(flat, int(lab))
		}
		ends[i] = len(flat)
	}
	ref := &metrics.BruteResult{Core: r.Core, Clusters: make([][]int, n), NumClusters: r.NumClusters}
	lo := 0
	for i, hi := range ends {
		if hi > lo {
			ref.Clusters[i] = flat[lo:hi:hi]
		}
		lo = hi
	}
	return ref
}

// checkResult compares an in-process result with its reference, up to a
// relabeling of clusters.
func checkResult(ref *metrics.BruteResult, r *pdbscan.Result) error {
	return metrics.SameDBSCANResult(ref, r.Core, r.Labels, r.Border, r.NumClusters)
}

// checkWire compares a result that came over HTTP with its reference. The
// wire carries only primary labels, so the full cluster set of every non-core
// point is derived from the wire result itself (memberships over the
// result's points, bucketed in g) before the comparison.
func checkWire(ref *metrics.BruteResult, g *pointGrid, r *serve.ResultJSON) error {
	n := len(ref.Core)
	if len(r.Labels) != n || len(r.Core) != n {
		return fmt.Errorf("result has %d labels and %d core flags, want %d", len(r.Labels), len(r.Core), n)
	}
	for i, c := range r.Core {
		if c && (r.Labels[i] < 0 || int(r.Labels[i]) >= r.NumClusters) {
			return fmt.Errorf("core point %d has label %d outside [0, %d)", i, r.Labels[i], r.NumClusters)
		}
	}
	return metrics.SameDBSCANResult(ref, r.Core, r.Labels, g.memberships(r.Core, r.Labels), r.NumClusters)
}

// pointGrid buckets a point set (row-major, d <= 3 dimensions) in cells of
// side eps, so the points within eps of any point lie in its 3^d surrounding
// cells. It holds no pointers per cell, so the collector does not mark it
// cell by cell while it is held.
type pointGrid struct {
	data   []float64
	d      int
	eps    float64
	cellOf map[[3]int64]int32 // cell coordinates -> cell index
	start  []int32            // cell c owns order[start[c]:start[c+1]]
	order  []int32            // point indices grouped by cell
}

func newPointGrid(data []float64, d int, eps float64) (*pointGrid, error) {
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("point grid: %d dimensions, want 1 to 3", d)
	}
	n := len(data) / d
	g := &pointGrid{data: data, d: d, eps: eps, cellOf: map[[3]int64]int32{}}
	cell := make([]int32, n)
	var size []int32
	for i := range cell {
		k := g.key(i)
		c, ok := g.cellOf[k]
		if !ok {
			c = int32(len(size))
			g.cellOf[k] = c
			size = append(size, 0)
		}
		cell[i] = c
		size[c]++
	}
	g.start = make([]int32, len(size)+1)
	for c, sz := range size {
		g.start[c+1] = g.start[c] + sz
	}
	fill := slices.Clone(g.start[:len(size)])
	g.order = make([]int32, n)
	for i, c := range cell {
		g.order[fill[c]] = int32(i)
		fill[c]++
	}
	return g, nil
}

// inCell returns the points of the cell at coordinates k.
func (g *pointGrid) inCell(k [3]int64) []int32 {
	c, ok := g.cellOf[k]
	if !ok {
		return nil
	}
	return g.order[g.start[c]:g.start[c+1]]
}

func (g *pointGrid) key(i int) [3]int64 {
	var k [3]int64
	for j := 0; j < g.d; j++ {
		k[j] = int64(math.Floor(g.data[i*g.d+j] / g.eps))
	}
	return k
}

// memberships returns, for every non-core point within eps of a core point,
// the ascending labels of the core points within eps: its cluster set by the
// DBSCAN definition.
func (g *pointGrid) memberships(core []bool, labels []int32) map[int32][]int32 {
	offsets := 1
	for j := 0; j < g.d; j++ {
		offsets *= 3
	}
	eps2 := g.eps * g.eps
	out := map[int32][]int32{}
	for i, c := range core {
		if c {
			continue
		}
		k := g.key(i)
		var set []int32
		for o := 0; o < offsets; o++ {
			nk, t := k, o
			for j := 0; j < g.d; j++ {
				nk[j] += int64(t%3) - 1
				t /= 3
			}
			for _, q := range g.inCell(nk) {
				if core[q] && g.distSq(i, int(q)) <= eps2 && !slices.Contains(set, labels[q]) {
					set = append(set, labels[q])
				}
			}
		}
		if len(set) > 0 {
			slices.Sort(set)
			out[int32(i)] = set
		}
	}
	return out
}

func (g *pointGrid) distSq(a, b int) float64 {
	s := 0.0
	for j := 0; j < g.d; j++ {
		t := g.data[a*g.d+j] - g.data[b*g.d+j]
		s += t * t
	}
	return s
}
