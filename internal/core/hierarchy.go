package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"pdbscan/internal/grid"
	"pdbscan/internal/prim"
)

// This file builds the eps-bounded HDBSCAN* hierarchy: per-point core
// distances and the minimum spanning forest of the mutual-reachability graph,
// both restricted to the Clusterer's build radius eps. Thresholding the
// sorted forest answers DBSCAN* for every eps' <= eps from one build
// (de Berg et al., "Faster DBSCAN and HDBSCAN in Low-Dimensional Euclidean
// Spaces"); the root package's Hierarchy type owns the query side.
//
// Everything is kept in the squared-distance domain. The core distance is
// stored as cd2(p) = the MinPts-th smallest squared distance from p (counting
// p itself), or +Inf when fewer than MinPts points lie within eps; an edge's
// weight is w2(p,q) = max(cd2(p), cd2(q), d2(p,q)). A threshold query at
// radius r then tests cd2 <= r*r and w2 <= r*r — bit-for-bit the same
// float64 predicate (d2 <= eps2) the batch pipeline evaluates, which is what
// makes CutEps exactly label-equivalent to a from-scratch run rather than
// merely close up to sqrt rounding.

// MREdge is one edge of the mutual-reachability minimum spanning forest,
// with endpoints A < B and squared weight W2 = max(cd2(A), cd2(B), d2(A,B)).
type MREdge struct {
	W2   float64
	A, B int32
}

// HierarchyData is the output of ComputeHierarchy: the squared core
// distances (+Inf for points with fewer than MinPts neighbors within the
// build eps) and the mutual-reachability MSF edges sorted ascending by
// (W2, A, B). Both slices are freshly allocated — they escape into the
// caller's Hierarchy and outlive the run's arena scratch.
type HierarchyData struct {
	CoreDist2 []float64
	Edges     []MREdge
}

// lessEdge is the strict total order on forest edges: by weight, ties by
// (A, B). It orders each Borůvka round's per-component choices, and the
// final forest is sorted by it.
func lessEdge(x, y MREdge) bool {
	if x.W2 != y.W2 {
		return x.W2 < y.W2
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// ComputeHierarchy computes the squared core distances and the
// mutual-reachability MSF over prepared cells. Params are interpreted as for
// Run; only MinPts, Exec, Arena, ForceGenericKernel, Timings and PhaseHook
// matter (the graph is built by direct cell scans, not a Graph strategy).
// Cancellation mirrors Run: the build stops at the next phase or cell
// boundary and returns the context's error with no partial output.
func ComputeHierarchy(cells *grid.Cells, p Params) (*HierarchyData, error) {
	if err := validateParams(cells, &p); err != nil {
		return nil, err
	}
	if p.Sample != nil {
		return nil, fmt.Errorf("core: sampled-core mode does not apply to hierarchy builds")
	}
	// The scans run on payload rows, like every other phase; only the output
	// speaks original indices: edge endpoints are mapped through Order as
	// they are emitted, and the per-row core distances are scattered once
	// at the end.
	st := newPipeline(cells, p)
	defer st.release()
	if err := st.phase("coredist"); err != nil {
		return nil, err
	}
	cd2 := st.coreDistances()
	if err := st.phase("edges"); err != nil {
		return nil, err
	}
	edges := st.boruvka(cd2)
	if err := st.phase("mst"); err != nil {
		return nil, err
	}
	prim.Sort(st.ex, edges, lessEdge)
	coreDist2 := make([]float64, cells.Pts.N) // escapes into HierarchyData; never pooled
	st.ex.For(len(cd2), func(r int) { coreDist2[cells.Order[r]] = cd2[r] })
	if err := st.phase("done"); err != nil {
		return nil, err
	}
	return &HierarchyData{CoreDist2: coreDist2, Edges: edges}, nil
}

// coreDistances computes cd2 for every payload row: the MinPts-th smallest
// squared distance within the cell's eps-neighborhood (own cell plus grid
// neighbors), +Inf when fewer than MinPts candidates are within eps. Unlike
// markCore there is no all-core cell shortcut — the actual k-th distance is
// needed, not just the threshold decision.
func (st *pipeline) coreDistances() []float64 {
	c := st.cells
	numCells := c.NumCells()
	cd2 := make([]float64, len(c.Order))
	st.ex.BlockedFor(numCells, 1, func(lo, hi int) {
		ws := st.getWS()
		for g := lo; g < hi; g++ {
			if st.cancelled() {
				break // partial cd2; ComputeHierarchy bails at the next boundary
			}
			st.cellCoreDistances(g, ws, cd2)
		}
		st.putWS(ws)
	})
	return cd2
}

// cellCoreDistances fills cd2 for the rows of cell g. Neighbor cells are
// ordered by ascending box-box distance (as in markCellCore) so that once a
// point's bounded max-heap is full, any cell whose box lies beyond the
// current k-th distance — and every cell after it — can be skipped. Every
// cell is a contiguous payload row range, scanned in place.
func (st *pipeline) cellCoreDistances(g int, ws *workerScratch, cd2 []float64) {
	c := st.cells
	cs := c.CellStart
	minPts := st.p.MinPts
	eps2 := st.eps2

	ord, dist := st.nearNeighbors(g, ws)
	for p := cs[g]; p < cs[g+1]; p++ {
		h := ws.kthHeap[:0]
		// Own cell first: includes p itself at distance 0, matching the
		// paper's "counting the point itself" core definition.
		for q := cs[g]; q < cs[g+1]; q++ {
			d2 := st.k.DistSq(p, q)
			if d2 <= eps2 {
				h = heapPushBounded(h, d2, minPts)
			}
		}
		for i, nb := range ord {
			bound := eps2
			if len(h) == minPts && h[0] < bound {
				bound = h[0]
			}
			// Cells are visited in ascending box order: when the heap is
			// full, a box beyond the current k-th distance ends the scan.
			if dist[i] > bound {
				if len(h) == minPts {
					break
				}
				continue // dist[i] <= eps2 by the prepass; only a full heap prunes
			}
			if st.k.PointBoxDistSqAt(p, c.BBLo, c.BBHi, nb) > bound {
				continue
			}
			for q := cs[nb]; q < cs[nb+1]; q++ {
				d2 := st.k.DistSq(p, q)
				if d2 <= eps2 {
					h = heapPushBounded(h, d2, minPts)
				}
			}
		}
		if len(h) == minPts {
			cd2[p] = h[0]
		} else {
			cd2[p] = math.Inf(1)
		}
		ws.kthHeap = h // keep grown capacity
	}
}

// nearNeighbors returns cell g's neighbor cells whose boxes lie within eps
// of g's, ascending by box distance (ties by cell index), with those
// distances. Both slices live in ws until the next call.
func (st *pipeline) nearNeighbors(g int, ws *workerScratch) ([]int32, []float64) {
	c := st.cells
	ord := ws.nbrOrder[:0]
	dist := ws.nbrDist[:0]
	for _, h := range c.Neighbors[g] {
		d2 := st.k.BoxBoxDistSqAt(c.BBLo, c.BBHi, int32(g), h)
		if d2 > st.eps2 {
			continue
		}
		ord = append(ord, h)
		dist = append(dist, d2)
	}
	sortNeighborsByDist(ws, ord, dist)
	ws.nbrOrder, ws.nbrDist = ord, dist // keep grown capacity
	return ord, dist
}

// heapPushBounded maintains a max-heap of the k smallest values seen: push
// while below capacity, replace the root when a smaller value arrives. The
// root h[0] is the current k-th smallest.
func heapPushBounded(h []float64, v float64, k int) []float64 {
	if len(h) < k {
		h = append(h, v)
		i := len(h) - 1
		for i > 0 {
			par := (i - 1) / 2
			if h[par] >= h[i] {
				break
			}
			h[par], h[i] = h[i], h[par]
			i = par
		}
		return h
	}
	if v >= h[0] {
		return h
	}
	h[0] = v
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] > h[m] {
			m = l
		}
		if r < len(h) && h[r] > h[m] {
			m = r
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// The edges phase is Borůvka over the grid. Every round, each component
// finds its lightest mutual-reachability edge to another component within
// eps, and the chosen edges join the forest through a union-find; the rounds
// repeat until no component has such an edge. Each round at least halves the
// number of components that still have one, so there are at most
// ⌈log2 m⌉ + 1 rounds for m core-capable points.
//
// What makes a round cheap is the weight bound w2(p,q) >= max(cd2(p),
// cd2(q)) (Wang, Yu, Gu and Shun, "Fast Parallel Algorithms for Euclidean
// Minimum Spanning Tree and Hierarchical Spatial Clustering"): a point's
// search stops at the first edge weighing its own cd2, skips any cell whose
// box distance or least cd2 is already no lighter than its best edge, and
// scans a cell's points in ascending cd2 only until cd2 reaches that best
// edge.
//
// Exactness: every chosen edge is a lightest edge leaving its component, so
// the forest is a minimum spanning forest (choices can close a cycle only
// among edges of equal weight, and the union-find drops one of them), and
// any two minimum spanning forests of one graph share their sorted weights. Where weights tie, the
// endpoints are one valid choice among several. Determinism: a point's
// search visits cells and points in a fixed order, keeps the first lightest
// edge it meets, and depends only on the round's components; each component
// keeps the lessEdge-least of its points' edges, and a round's choices join
// the forest in lessEdge order. The one racy input — a component's
// best-so-far, which lets a point whose cd2 exceeds it skip its search — is
// read with a strict comparison, so it only ever drops edges strictly
// heavier than the component's choice. The forest is therefore independent
// of worker count and scheduling.

// mrGraph is the edges phase's view of the core-capable points (cd2 <=
// eps2; no other point has an edge): one slot per such point, grouped by
// cell and, within a cell, ascending by (cd2, original index). Cells are the
// grid's; a cell without core-capable points has no slots and appears in no
// neighbor list.
type mrGraph struct {
	cd2   []float64 // per slot
	row   []int32   // per slot: payload row
	start []int32   // per cell: its slots are [start[g], start[g+1])
	nbrs  [][]mrNbr // per cell with slots: itself, then its neighbors with slots

	// Per-round state.
	comp     []int32         // per slot: its component, the union-find root
	cellComp []int32         // per cell: the component all its slots share, or -1
	bound    []atomic.Uint64 // per component: float64 bits of the lightest edge found so far
	candW    []float64       // per slot: weight of its lightest edge to another component
	candQ    []int32         // per slot: that edge's far slot, or -1 for none
}

// mrNbr is one neighbor of a cell, in nearNeighbors order.
type mrNbr struct {
	d2 float64 // squared box-box distance
	h  int32
}

// newMRGraph lays out the slots and the neighbor lists.
func (st *pipeline) newMRGraph(cd2 []float64) *mrGraph {
	c := st.cells
	numCells := c.NumCells()
	start := make([]int32, numCells+1)
	st.ex.For(numCells, func(g int) {
		for _, v := range cd2[c.CellStart[g]:c.CellStart[g+1]] {
			if v <= st.eps2 {
				start[g+1]++
			}
		}
	})
	nbrOff := make([]int32, numCells+1)
	for g := range numCells {
		start[g+1] += start[g]
		nbrOff[g+1] = nbrOff[g]
		if start[g+1] > start[g] {
			nbrOff[g+1] += int32(len(c.Neighbors[g])) + 1
		}
	}
	m := int(start[numCells])
	mg := &mrGraph{
		cd2:      make([]float64, m),
		row:      make([]int32, m),
		start:    start,
		nbrs:     make([][]mrNbr, numCells),
		comp:     make([]int32, m),
		cellComp: make([]int32, numCells),
		bound:    make([]atomic.Uint64, m),
		candW:    make([]float64, m),
		candQ:    make([]int32, m),
	}
	nbrStore := make([]mrNbr, nbrOff[numCells])
	st.ex.BlockedFor(numCells, 1, func(lo, hi int) {
		ws := st.getWS()
		for g := lo; g < hi; g++ {
			s := mg.row[start[g]:start[g]]
			for r := c.CellStart[g]; r < c.CellStart[g+1]; r++ {
				if cd2[r] <= st.eps2 {
					s = append(s, r)
				}
			}
			if len(s) == 0 {
				continue
			}
			slices.SortFunc(s, func(a, b int32) int {
				if cd2[a] != cd2[b] {
					if cd2[a] < cd2[b] {
						return -1
					}
					return 1
				}
				return int(c.Order[a]) - int(c.Order[b])
			})
			for i, r := range s {
				mg.cd2[int(start[g])+i] = cd2[r]
			}
			out := append(nbrStore[nbrOff[g]:nbrOff[g]], mrNbr{h: int32(g)})
			ord, dist := st.nearNeighbors(g, ws)
			for i, h := range ord {
				if start[h+1] > start[h] {
					out = append(out, mrNbr{d2: dist[i], h: h})
				}
			}
			mg.nbrs[g] = out
		}
		st.putWS(ws)
	})
	return mg
}

// edge returns slot p's current candidate as a forest edge.
func (st *pipeline) edge(mg *mrGraph, p int32) MREdge {
	order := st.cells.Order
	return makeMREdge(order[mg.row[p]], order[mg.row[mg.candQ[p]]], mg.candW[p])
}

// boruvka runs the edges phase: Borůvka rounds over mrGraph until no
// component has an edge within eps. The forest comes back unsorted; the
// caller sorts it. The rounds and distance evaluations are added to
// p.Timings when set.
func (st *pipeline) boruvka(cd2 []float64) []MREdge {
	mg := st.newMRGraph(cd2)
	m := len(mg.cd2)
	numCells := len(mg.cellComp)
	var rounds int
	var evals int64
	uf := &st.rs.uf
	uf.Reset(m)
	bestOf := make([]int32, m) // per component: the slot holding its choice, or -1
	var chosen []int32
	var forest []MREdge
	inf := math.Float64bits(math.Inf(1))
	for !st.cancelled() {
		rounds++
		st.ex.For(m, func(i int) {
			mg.comp[i] = uf.Find(int32(i))
			mg.bound[i].Store(inf)
			bestOf[i] = -1
		})
		st.ex.For(numCells, func(g int) {
			cg := int32(-1)
			for i, cq := range mg.comp[mg.start[g]:mg.start[g+1]] {
				if i == 0 {
					cg = cq
				} else if cq != cg {
					cg = -1
					break
				}
			}
			mg.cellComp[g] = cg
		})
		var roundEvals atomic.Int64
		st.ex.BlockedFor(numCells, 1, func(lo, hi int) {
			var n int64
			for g := lo; g < hi && !st.cancelled(); g++ {
				n += st.searchCell(mg, int32(g))
			}
			roundEvals.Add(n)
		})
		evals += roundEvals.Load()
		if st.cancelled() {
			break // partial candidates; ComputeHierarchy bails at the boundary
		}
		for p, q := range mg.candQ {
			if q < 0 {
				continue
			}
			cp := mg.comp[p]
			if b := bestOf[cp]; b < 0 || lessEdge(st.edge(mg, int32(p)), st.edge(mg, b)) {
				bestOf[cp] = int32(p)
			}
		}
		chosen = chosen[:0]
		for _, p := range bestOf {
			if p >= 0 {
				chosen = append(chosen, p)
			}
		}
		if len(chosen) == 0 {
			break
		}
		// Two components may choose the same edge; the second copy finds
		// its endpoints already joined.
		slices.SortFunc(chosen, func(a, b int32) int {
			ea, eb := st.edge(mg, a), st.edge(mg, b)
			switch {
			case lessEdge(ea, eb):
				return -1
			case lessEdge(eb, ea):
				return 1
			}
			return 0
		})
		for _, p := range chosen {
			q := mg.candQ[p]
			if uf.Find(p) != uf.Find(q) {
				uf.Union(p, q)
				forest = append(forest, st.edge(mg, p))
			}
		}
	}
	if tm := st.p.Timings; tm != nil {
		tm.Rounds += rounds
		tm.DistEvals += evals
	}
	edges := make([]MREdge, len(forest)) // escapes into HierarchyData; never pooled
	copy(edges, forest)
	return edges
}

// searchCell finds, for every slot of cell g, its lightest edge to
// another component and returns the number of distances it evaluated.
func (st *pipeline) searchCell(mg *mrGraph, g int32) int64 {
	var evals int64
	eps2 := st.eps2
	bbLo, bbHi := st.cells.BBLo, st.cells.BBHi
	nbrs := mg.nbrs[g]
	for p := mg.start[g]; p < mg.start[g+1]; p++ {
		rp := mg.row[p]
		mg.candQ[p] = -1
		c := mg.comp[p]
		cp := mg.cd2[p]
		// Every edge of p weighs at least cp: when the component already
		// has a strictly lighter edge, p cannot supply its choice.
		if cp > math.Float64frombits(mg.bound[c].Load()) {
			continue
		}
		best, bq := math.Inf(1), int32(-1)
	scan:
		for _, nb := range nbrs {
			if nb.d2 >= best {
				break // the rest lie farther still
			}
			h := nb.h
			if mg.cellComp[h] == c || mg.cd2[mg.start[h]] >= best {
				continue
			}
			if pb := st.k.PointBoxDistSqAt(rp, bbLo, bbHi, h); pb >= best || pb > eps2 {
				continue
			}
			for q := mg.start[h]; q < mg.start[h+1]; q++ {
				cq := mg.cd2[q]
				if cq >= best {
					break // ascending cd2: no lighter edge in this cell
				}
				if mg.comp[q] == c {
					continue
				}
				d2 := st.k.DistSq(rp, mg.row[q])
				evals++
				if d2 > eps2 {
					continue
				}
				w := max(cp, cq, d2)
				if w < best {
					best, bq = w, q
					if w == cp {
						break scan // no edge of p is lighter than cp
					}
				}
			}
		}
		if bq >= 0 {
			mg.candW[p], mg.candQ[p] = best, bq
			atomicMinBits(&mg.bound[c], best)
		}
	}
	return evals
}

// atomicMinBits lowers a, the bits of a non-negative float64, to v's bits
// if v is smaller. Non-negative float64 values order like their bit
// patterns.
func atomicMinBits(a *atomic.Uint64, v float64) {
	nb := math.Float64bits(v)
	for {
		old := a.Load()
		if nb >= old || a.CompareAndSwap(old, nb) {
			return
		}
	}
}

// makeMREdge orders the endpoints of an edge of squared weight w2.
func makeMREdge(p, q int32, w2 float64) MREdge {
	if p > q {
		p, q = q, p
	}
	return MREdge{W2: w2, A: p, B: q}
}
