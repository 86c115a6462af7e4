package core

import (
	"fmt"

	"pdbscan/internal/grid"
	"pdbscan/internal/prim"
	"pdbscan/internal/quadtree"
)

// Incremental carries the per-cell pipeline state that survives between
// streaming runs: core flags per point slot, per-cell quadtrees, and the
// boolean cell-graph edge set. It pairs with grid.Dynamic — the cell slots
// and point slots the caches are keyed by are the ones Dynamic keeps stable
// across mutations — and with the affected set a Snapshot reports: only state
// whose inputs fall in that set is recomputed by RunIncremental.
//
// The zero value is not usable; create with NewIncremental. An Incremental
// must not be shared between concurrent RunIncremental calls (the streaming
// API serializes).
type Incremental struct {
	valid  bool
	minPts int // the MinPts coreFlags (and corePts-derived caches) hold for

	// coreFlags[p] for every point slot; stale entries are overwritten for
	// affected cells and cleared for freed slots on every run.
	coreFlags []bool

	// Per-cell core point lists and their bounding boxes (the collectCore
	// products), valid for clean cells whenever MinPts is unchanged.
	corePts  [][]int32
	coreBBLo []float64
	coreBBHi []float64

	// Per-cell quadtrees. allTrees depend only on the cell's point set;
	// coreTrees additionally on MinPts (via the core point list) and the
	// depth cap (via Graph kind and Rho).
	allTrees   []*quadtree.Tree
	coreTrees  []*quadtree.Tree
	coreMinPts int
	coreDepth  int

	// edges holds the connectivity boolean of every neighboring core-cell
	// pair: edges[g] lists, in ascending h order, the booleans for g's
	// neighbors h < g that are core cells (mirroring the sorted Neighbors
	// lists, so a tick can walk cache and neighbor list in lockstep with no
	// lookups). Unlike Run, the incremental path evaluates every pair (no
	// already-connected pruning) precisely so this set is complete: the next
	// tick can then union preserved booleans for clean pairs without
	// re-deriving connectivity order.
	edges    [][]edgeEntry
	edgeKind GraphStrategy // GraphBCP (all exact methods) or GraphApprox
	edgeRho  float64

	// edgesSpare is the previous tick's top-level edge table, recycled as
	// the next tick's newEdges so a steady-state tick allocates no
	// cell-count-sized table. Only the outer slice is reused — the per-cell
	// entry lists may be aliased between consecutive tables (the clean-cell
	// fast path re-points them), so entries are never appended in place.
	edgesSpare [][]edgeEntry
}

// NewIncremental returns an empty cache; the first RunIncremental on it
// computes everything and later runs reuse whatever the DirtyInfo allows.
func NewIncremental() *Incremental {
	return &Incremental{coreDepth: -2}
}

// Fresh reports whether the cache has absorbed no run yet — the next
// RunIncremental on it recomputes everything regardless of the DirtyInfo.
// Callers use it to report full rebuilds (e.g. after a failed run dropped
// the caches) honestly in their stats.
func (inc *Incremental) Fresh() bool { return !inc.valid }

// edgeEntry records one evaluated cell-graph pair (h < g, stored under g).
type edgeEntry struct {
	h    int32
	conn bool
}

// RunIncremental executes the pipeline over a Dynamic snapshot, recomputing
// MarkCore and the cell-graph edges only for cells in dirty's affected set
// (plus everything, when MinPts or the connectivity kind changed since the
// cached state was built) and reusing inc's caches for the rest. Cluster
// connectivity is rebuilt from the preserved + recomputed edge booleans with
// a fresh union-find, and labels and borders are re-derived in full — both
// are cheap linear passes compared to the distance work the caches avoid.
//
// The result is exactly the clustering Run produces on the same cells, up to
// cluster label permutation. The exact graph strategies (BCP, quadtree, USEC,
// Delaunay) all define the same cell connectivity, so the incremental path
// evaluates exact edges with filtered BCP regardless of which exact strategy
// p.Graph names; GraphApprox keeps its approximate quadtree semantics
// (deterministic per cell pair, hence cacheable). Bucketing is a scheduling
// heuristic for the pruned batch path and is ignored here.
func RunIncremental(cells *grid.Cells, p Params, inc *Incremental, dirty *grid.DirtyInfo) (*Result, error) {
	if err := validateParams(cells, &p); err != nil {
		return nil, err
	}
	if inc == nil || dirty == nil {
		return nil, fmt.Errorf("core: RunIncremental requires an Incremental cache and DirtyInfo")
	}
	if p.Sample != nil {
		return nil, fmt.Errorf("core: sampled-core mode is batch-only (no incremental path)")
	}
	// The incremental caches (core lists, quadtrees, edge endpoints) are
	// keyed by original point index and survive across ticks, while the
	// cell-major payload's row space is rebuilt by every Snapshot — a
	// payload-row run would poison every cached index. Run indirect.
	p.ForceIndirectLayout = true

	// Normalize the connectivity kind: every exact strategy shares one edge
	// boolean ("some core pair within eps"), computed by filtered BCP.
	kind := GraphBCP
	if p.Graph == GraphApprox {
		kind = GraphApprox
	}
	p.Graph = kind

	numCells := cells.NumCells()
	n := cells.Pts.N

	// Dirty predicates. Content-dirty: the cell's own point set (or its
	// eps-neighborhood) changed. Core-dirty additionally triggers when the
	// cached core flags were computed for a different MinPts. The hot loops
	// take (allDirty, affected) directly — a closure call per neighbor visit
	// is measurable at cell-graph scale.
	contentAllDirty := dirty.Full || !inc.valid
	allDirty := contentAllDirty || p.MinPts != inc.minPts
	affected := dirty.Affected
	contentDirty := func(g int) bool { return contentAllDirty || affected[g] }
	coreDirty := func(g int) bool { return allDirty || affected[g] }

	// Drop tree caches whose validity keys no longer match, and invalidate
	// per-cell entries regardless of whether this run will use them — the
	// next run that does must not see stale trees.
	if inc.allTrees != nil {
		inc.allTrees = resizeTrees(inc.allTrees, numCells)
		for g := range inc.allTrees {
			if contentDirty(g) {
				inc.allTrees[g] = nil
			}
		}
	}
	maxDepth := -1
	if kind == GraphApprox {
		maxDepth = quadtree.ApproxDepth(p.Rho)
	}
	if inc.coreTrees != nil {
		if inc.coreMinPts != p.MinPts || (kind == GraphApprox && inc.coreDepth != maxDepth) {
			inc.coreTrees = nil
		} else {
			inc.coreTrees = resizeTrees(inc.coreTrees, numCells)
			for g := range inc.coreTrees {
				if coreDirty(g) {
					inc.coreTrees[g] = nil
				}
			}
		}
	}

	st := newPipeline(cells, p)
	defer st.release()

	// Cancellation boundary: a cancelled incremental run leaves inc's caches
	// half-absorbed (flags, lists, and edges are updated in place), so the
	// cache is poisoned before the error returns — the owner either drops it
	// (StreamingClusterer replaces a failed run's cache) or the next run sees
	// Fresh() and recomputes everything. Either way no stale entry survives.
	boundary := func(name string) error {
		err := st.phase(name)
		if err != nil {
			inc.valid = false
		}
		return err
	}

	// MarkCore, restricted to core-dirty cells over the cached flags.
	if err := boundary("mark"); err != nil {
		return nil, err
	}
	if len(inc.coreFlags) < n {
		inc.coreFlags = append(inc.coreFlags, make([]bool, n-len(inc.coreFlags))...)
	}
	st.coreFlags = inc.coreFlags[:n]
	if p.Mark == MarkQuadtree {
		st.rs.allTrees = lazyTreeBuf(st.rs.allTrees, numCells)
		st.allTrees = st.rs.allTrees
		st.preAllTrees = inc.allTrees // nil entries (or a nil slice) build lazily
	}
	st.ex.For(n, func(i int) {
		if cells.CellOf[i] < 0 {
			st.coreFlags[i] = false // freed point slot
		}
	})
	st.ex.BlockedFor(numCells, 1, func(lo, hi int) {
		ws := st.getWS()
		for g := lo; g < hi; g++ {
			if st.cancelled() {
				break
			}
			if (allDirty || affected[g]) && cells.CellSize(g) > 0 {
				st.markCellCore(g, ws)
			}
		}
		st.putWS(ws)
	})

	if err := boundary("collect"); err != nil {
		return nil, err
	}
	st.collectCoreIncremental(inc, allDirty, affected)
	if err := boundary("graph"); err != nil {
		return nil, err
	}
	st.clusterCoreIncremental(inc, kind, allDirty, affected)
	if err := boundary("label"); err != nil {
		return nil, err
	}
	labels, numClusters := st.coreLabels()
	if err := boundary("border"); err != nil {
		return nil, err
	}
	border := st.clusterBorder(labels, numClusters)
	if err := boundary("done"); err != nil {
		return nil, err
	}

	// Harvest the caches for the next run.
	inc.valid = true
	inc.minPts = p.MinPts
	if p.Mark == MarkQuadtree {
		inc.allTrees = harvestTrees(inc.allTrees, st.allTrees, numCells)
	}
	if kind == GraphApprox {
		inc.coreTrees = harvestTrees(inc.coreTrees, st.coreTrees, numCells)
		inc.coreMinPts = p.MinPts
		inc.coreDepth = maxDepth
	}

	// The result's flags must not alias the cache (the cache mutates on the
	// next run).
	coreOut := make([]bool, n)
	copy(coreOut, st.coreFlags)
	return &Result{
		Core:        coreOut,
		Labels:      labels,
		Border:      border,
		NumClusters: numClusters,
	}, nil
}

// collectCoreIncremental is collectCore over the cached per-cell core lists:
// only core-dirty cells re-derive their core points and core bounding box;
// clean cells keep last tick's (their flags and point sets are unchanged).
// All-core cells are re-aliased to the current snapshot's point list so no
// cache entry pins a previous snapshot's Order array.
func (st *pipeline) collectCoreIncremental(inc *Incremental, allDirty bool, affected []bool) {
	c := st.cells
	d := c.Pts.D
	numCells := c.NumCells()
	for len(inc.corePts) < numCells {
		inc.corePts = append(inc.corePts, nil)
	}
	inc.corePts = inc.corePts[:numCells]
	inc.coreBBLo = resizeFloats(inc.coreBBLo, numCells*d)
	inc.coreBBHi = resizeFloats(inc.coreBBHi, numCells*d)
	st.corePts = inc.corePts
	st.coreBBLo = inc.coreBBLo
	st.coreBBHi = inc.coreBBHi
	st.ex.ForGrain(numCells, 1, func(g int) {
		if !allDirty && !affected[g] {
			if len(st.corePts[g]) > 0 && len(st.corePts[g]) == c.CellSize(g) {
				st.corePts[g] = c.PointsOf(g) // same contents, current backing
			}
			return
		}
		st.collectCellCore(g)
	})
	st.coreCells = prim.FilterIndex(st.ex, numCells, func(g int) bool {
		return len(st.corePts[g]) > 0
	})
}

func resizeFloats(a []float64, n int) []float64 {
	if cap(a) >= n {
		return a[:n]
	}
	out := make([]float64, n)
	copy(out, a)
	return out
}

func resizeTrees(trees []*quadtree.Tree, numCells int) []*quadtree.Tree {
	for len(trees) < numCells {
		trees = append(trees, nil)
	}
	return trees[:numCells]
}

// harvestTrees merges the trees built during this run (st's lazy slots) into
// the cache slice: a pre-seeded entry stays, a freshly built one is adopted.
func harvestTrees(cached []*quadtree.Tree, built []lazyTree, numCells int) []*quadtree.Tree {
	cached = resizeTrees(cached, numCells)
	for g := range built {
		if t := built[g].tree; t != nil {
			cached[g] = t
		}
	}
	return cached
}

// clusterCoreIncremental builds the cell graph like clusterCore, but
// evaluates the connectivity boolean of every neighboring core-cell pair —
// reusing the cached boolean when both endpoints are outside the core-dirty
// set — and unions all true edges into a fresh union-find. Evaluating every
// pair (instead of pruning already-connected ones) is what keeps inc.edges a
// complete function of the point set, so cleanness of the two endpoint cells
// alone certifies a cached value.
func (st *pipeline) clusterCoreIncremental(inc *Incremental, kind GraphStrategy, allDirty bool, affected []bool) {
	numCells := st.cells.NumCells()
	st.initUF(numCells)

	var connect connectFunc
	switch kind {
	case GraphBCP:
		connect = st.bcpConnected
	case GraphApprox:
		st.rs.coreTrees = lazyTreeBuf(st.rs.coreTrees, numCells)
		st.coreTrees = st.rs.coreTrees
		st.preCoreTrees = inc.preCoreTreesFor(numCells)
		connect = st.approxConnected
	}

	// A cached edge boolean is reusable only if it was computed by the same
	// deterministic function: same MinPts (core point sets), same kind, and
	// same rho for approx.
	reusable := inc.valid && inc.minPts == st.p.MinPts &&
		inc.edgeKind == kind && (kind != GraphApprox || inc.edgeRho == st.p.Rho)

	evaluate := func(g, h int32, ws *workerScratch) bool {
		// The core-bounding-box filter is part of the edge function (shared
		// with clusterCore, so the booleans — and for approx, the actual
		// query sequence — match the from-scratch path).
		if st.k.BoxBoxDistSqAt(st.coreBBLo, st.coreBBHi, g, h) > st.eps2 {
			return false
		}
		return connect(g, h, ws)
	}

	// Recycle the previous tick's top-level table (cleared to full capacity:
	// stale entries must not pin vanished cells' lists even when the cell
	// count shrank); the per-cell entry lists are never reused in place —
	// see the edgesSpare invariant.
	newEdges := inc.edgesSpare
	if cap(newEdges) < numCells {
		newEdges = make([][]edgeEntry, numCells)
	} else {
		newEdges = newEdges[:cap(newEdges)]
		clear(newEdges)
		newEdges = newEdges[:numCells]
	}
	st.ex.BlockedFor(len(st.coreCells), 1, func(blo, bhi int) {
		ws := st.getWS()
		defer st.putWS(ws)
		for i := blo; i < bhi; i++ {
			if st.cancelled() {
				break // partial edge table; RunIncremental poisons the cache
			}
			g := st.coreCells[i]
			// A clean cell's cached entry list is aligned with its (unchanged,
			// sorted) neighbor list: walk the two in lockstep. An entry whose h
			// is clean carries a valid boolean; affected h's are re-evaluated
			// (their core point set may have changed).
			var prev []edgeEntry
			if reusable && !allDirty && !affected[g] && int(g) < len(inc.edges) {
				prev = inc.edges[g]
				// Fast path: no neighbor below g is dirty, so the cached entry
				// list is valid wholesale — just union its true edges.
				fast := true
				for _, h := range st.cells.Neighbors[g] {
					if h < g && affected[h] {
						fast = false
						break
					}
				}
				if fast {
					for _, e := range prev {
						if e.conn {
							st.uf.Union(g, e.h)
						}
					}
					newEdges[g] = prev
					continue
				}
			}
			pi := 0
			out := make([]edgeEntry, 0, len(prev))
			for _, h := range st.cells.Neighbors[g] {
				if h >= g || len(st.corePts[h]) == 0 {
					continue
				}
				for pi < len(prev) && prev[pi].h < h {
					pi++
				}
				var conn bool
				if prev != nil && !affected[h] && pi < len(prev) && prev[pi].h == h {
					conn = prev[pi].conn
				} else {
					conn = evaluate(g, h, ws)
				}
				out = append(out, edgeEntry{h: h, conn: conn})
				if conn {
					st.uf.Union(g, h)
				}
			}
			newEdges[g] = out
		}
	})

	// Replace the edge cache wholesale: entries for vanished cells drop out
	// by construction. The displaced table becomes the next tick's spare.
	inc.edgesSpare = inc.edges
	inc.edges = newEdges
	inc.edgeKind = kind
	inc.edgeRho = st.p.Rho
}

// preCoreTreesFor returns the cached core trees sized to numCells (nil when
// nothing is cached).
func (inc *Incremental) preCoreTreesFor(numCells int) []*quadtree.Tree {
	if inc.coreTrees == nil {
		return nil
	}
	inc.coreTrees = resizeTrees(inc.coreTrees, numCells)
	return inc.coreTrees
}
