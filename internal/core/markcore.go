package core

import "sort"

// markCore implements Algorithm 2 over every cell: cells with at least
// minPts points are all-core; points in smaller cells count their
// eps-neighbors in their own cell plus every neighboring cell via RangeCount
// queries.
func (st *pipeline) markCore() {
	st.coreFlags = make([]bool, st.cells.Pts.N) // escapes into Result.Core; never pooled
	st.initMarkTrees()
	st.markCells(0, st.cells.NumCells(), nil)
}

// initMarkTrees readies the lazy per-cell quadtrees MarkQuadtree counts
// against (a no-op for MarkScan).
func (st *pipeline) initMarkTrees() {
	if st.p.Mark == MarkQuadtree {
		st.rs.allTrees = lazyTreeBuf(st.rs.allTrees, st.cells.NumCells())
		st.allTrees = st.rs.allTrees
	}
}

// markCells runs markCellCore over the non-empty cells of [lo, hi) — all of
// them, or only those with only[g] set when only is non-nil (the
// incremental path's core-dirty cells). The batch run passes every cell, an
// out-of-core window turn its shard's owned range.
func (st *pipeline) markCells(lo, hi int, only []bool) {
	c := st.cells
	st.ex.BlockedFor(hi-lo, 1, func(blo, bhi int) {
		ws := st.getWS()
		for g := lo + blo; g < lo+bhi; g++ {
			if st.cancelled() {
				break // partial flags; the run bails at the next phase boundary
			}
			if (only == nil || only[g]) && c.CellSize(g) > 0 {
				st.markCellCore(g, ws)
			}
		}
		st.putWS(ws)
	})
}

// markCellCore decides the core flag of every point in cell g (writing both
// true and false, so the incremental pipeline can re-mark a dirty cell over
// stale flags).
//
// Under a sample mask (Params.Sample, the DBSCAN++ mode) only sampled points
// get a core decision — computed against the full counting set, so it equals
// the exact decision — and every unsampled point's flag is written false.
//
// For small cells the neighbor list is first filtered and ordered by
// ascending box-box distance between the cells' point bounding boxes:
// neighbors whose box lies beyond eps can contribute nothing to any point of
// g and are dropped wholesale, and visiting the nearest boxes first makes
// the count reach MinPts — and the per-point loop terminate — after the
// fewest RangeCount queries. The core decision is a pure threshold on the
// total count, so visit order never changes a flag.
//
// The prepass costs one box-box distance per neighbor plus a sort, amortized
// over the cell's points. In low dimensions neighbor lists are short (<= 24
// cells in 2D) and the prepass always pays; in high dimensions a sparse cell
// can see a neighbor list orders of magnitude longer than its point count,
// where the old per-point early-exit walk does less total work — so the
// ordered path is gated on the list-to-cell size ratio and the unordered
// walk kept as the fallback.
func (st *pipeline) markCellCore(g int, ws *workerScratch) {
	c := st.cells
	minPts := st.p.MinPts
	eps2 := st.eps2
	size := c.CellSize(g)
	rows := c.RowsOf(g)
	orig := c.PointsOf(g)
	sample := st.p.Sample
	if size >= minPts {
		// Every pair inside a cell is within eps (cell diameter <= eps).
		// Flags and the sample mask are keyed by original index, so this
		// shortcut never touches the payload at all.
		if sample != nil {
			for _, p := range orig {
				st.coreFlags[p] = sample[p]
			}
			return
		}
		for _, p := range orig {
			st.coreFlags[p] = true
		}
		return
	}
	nbrs := c.Neighbors[g]
	ordered := len(nbrs) <= maxOrderedNeighbors
	if !ordered && st.k.Specialized() {
		// In 2D/3D the box prepass is a handful of specialized compares per
		// neighbor; it also pays on longer lists when the cell has enough
		// points to amortize it. In higher dimensions the generic prepass
		// only pays on short lists (the fallback preserves the seed's cost
		// shape there — measured in BENCH_hot.json's d=5 rows).
		ordered = len(nbrs) <= 8*size
	}
	if !ordered {
		// Unordered fallback: per-point box check + early exit.
		for i, p := range rows {
			op := orig[i]
			if sample != nil && !sample[op] {
				st.coreFlags[op] = false
				continue
			}
			count := size
			for _, h := range nbrs {
				if count >= minPts {
					break
				}
				if st.k.PointBoxDistSqAt(p, c.BBLo, c.BBHi, h) > eps2 {
					continue
				}
				count += st.rangeCount(p, h, eps2, minPts-count)
			}
			st.coreFlags[op] = count >= minPts
		}
		return
	}
	// Order the neighbor cells by ascending box distance, dropping cells
	// entirely outside the eps-ball of g's bounding box.
	ord := ws.nbrOrder[:0]
	dist := ws.nbrDist[:0]
	for _, h := range nbrs {
		d2 := st.k.BoxBoxDistSqAt(c.BBLo, c.BBHi, int32(g), h)
		if d2 > eps2 {
			continue
		}
		ord = append(ord, h)
		dist = append(dist, d2)
	}
	sortNeighborsByDist(ws, ord, dist)
	ws.nbrOrder, ws.nbrDist = ord, dist // keep grown capacity

	// Each point runs RangeCount against the ordered neighbors.
	for i, p := range rows {
		op := orig[i]
		if sample != nil && !sample[op] {
			st.coreFlags[op] = false
			continue
		}
		count := size // the cell's own points are all within eps
		for _, h := range ord {
			if count >= minPts {
				break
			}
			// Skip neighbor cells entirely outside this point's eps-ball.
			if st.k.PointBoxDistSqAt(p, c.BBLo, c.BBHi, h) > eps2 {
				continue
			}
			count += st.rangeCount(p, h, eps2, minPts-count)
		}
		st.coreFlags[op] = count >= minPts
	}
}

// rangeCount counts points of neighbor cell h within sqrt(eps2) of point p,
// stopping at need, through the configured MarkCore strategy.
func (st *pipeline) rangeCount(p, h int32, eps2 float64, need int) int {
	if st.p.Mark == MarkQuadtree {
		return st.allTree(h).CountWithin(st.at(p), st.eps)
	}
	// Cell h's points are the contiguous payload rows [CellStart[h],
	// CellStart[h+1]): stream them.
	return st.k.CountWithinRange(p, st.cells.CellStart[h], st.cells.CellStart[h+1], eps2, need)
}

// maxOrderedNeighbors is the neighbor-list length up to which the ordered
// prepass always runs regardless of cell size (covers every 2D list and the
// common 3D ones); longer lists order only when the cell has enough points
// to amortize the prepass.
const maxOrderedNeighbors = 32

// sortNeighborsByDist sorts (ord, dist) by ascending distance, ties by cell
// index (a deterministic total order): insertion sort for short lists, an
// allocation-free sort.Sort via the worker's sorter otherwise.
func sortNeighborsByDist(ws *workerScratch, ord []int32, dist []float64) {
	if len(ord) <= 24 {
		for i := 1; i < len(ord); i++ {
			dj, hj := dist[i], ord[i]
			j := i
			for j > 0 && (dist[j-1] > dj || (dist[j-1] == dj && ord[j-1] > hj)) {
				dist[j], ord[j] = dist[j-1], ord[j-1]
				j--
			}
			dist[j], ord[j] = dj, hj
		}
		return
	}
	ws.sorter.ord, ws.sorter.dist = ord, dist
	sort.Sort(&ws.sorter)
	ws.sorter.ord, ws.sorter.dist = nil, nil
}

// nbrSorter sorts a neighbor list by ascending distance, ties by cell index.
type nbrSorter struct {
	ord  []int32
	dist []float64
}

func (s *nbrSorter) Len() int { return len(s.ord) }
func (s *nbrSorter) Less(i, j int) bool {
	if s.dist[i] != s.dist[j] {
		return s.dist[i] < s.dist[j]
	}
	return s.ord[i] < s.ord[j]
}
func (s *nbrSorter) Swap(i, j int) {
	s.ord[i], s.ord[j] = s.ord[j], s.ord[i]
	s.dist[i], s.dist[j] = s.dist[j], s.dist[i]
}
