package core

import (
	"fmt"
	"slices"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/delaunay"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/unionfind"
)

// OOCStats reports the residency accounting of one RunOutOfCore call. All
// figures cover point-data windows only: the run additionally keeps O(n)
// bookkeeping resident (core flags, labels, the cell-level union-find and the
// store metadata), which is orders of magnitude smaller than the points and
// documented as outside the maxResidentBytes budget.
type OOCStats struct {
	// BytesMapped is the cumulative bytes of point data mapped across every
	// window turn of both passes.
	BytesMapped int64
	// PeakResidentBytes is the largest single window mapping — the most
	// point data resident at any moment (windows are mapped one at a time
	// and released before the next turn).
	PeakResidentBytes int64
	// ShardsResidentPeak is the widest halo window, in shards.
	ShardsResidentPeak int
}

// RunOutOfCore executes the pipeline over a cell store without ever holding
// the whole dataset in memory: shards are swept in order, and each turn maps
// only the shard's halo window — the contiguous byte range holding the shard
// plus every shard owning one of its halo cells. That is all a shard needs:
// core marking reads only points within eps, all in halo cells, and a
// cell-graph edge that crosses a shard cut joins two cells that are each in
// the other's halo.
//
// The result equals Run's on the in-RAM cells. Each turn stands the mapped
// window up as a cell structure with no re-grid (BuildCellMajor over the
// store's cell offsets and absolute lattice coordinates: every point sits in
// a bit-identically positioned cell, in the writer's within-cell order, so
// every geometric predicate evaluates on identical operands) and runs the
// batch pipeline's own per-cell MarkCore, collect and ClusterBorder bodies
// over the shard's owned cell range — window cells are store order, so that
// range is contiguous. Core flags are decomposable — a point's flag depends
// only on points within eps — and accumulate in a global store-order array.
// Every per-pair connectivity predicate is a pure function of the cell pair,
// so the components do not depend on which turn evaluates an edge, or
// whether it is skipped as already connected. All unions go into one global
// union-find over the *writer's* original cell ids, where union-by-min-index
// roots and DenseRoots label assignment reproduce the in-RAM run's labels
// bit-for-bit. Cross-window pairs are evaluated exactly once, by the later
// shard's turn (the earlier shard's cells are part of the later window by
// the halo invariant). Delaunay turns triangulate the shard's own core
// points — the triangulation of any point subset contains the subset's
// Euclidean MST, so it realizes every eps-connection within the shard — and
// join shards with exact BCP edges.
//
// Every turn reports its phases through the pipeline's phase transitions, so
// Params.Timings sums each phase over all turns, Params.PhaseHook fires at
// every turn's phase boundaries, and a cancelled run stops at the next one.
//
// maxResidentBytes > 0 is a hard budget on a single window mapping: a window
// that exceeds it fails the run with an error naming the shortfall (rewrite
// the store with more shards, or raise the budget).
func RunOutOfCore(store *cellstore.Store, p Params, maxResidentBytes int64) (*Result, *OOCStats, error) {
	if p.Sample != nil {
		return nil, nil, fmt.Errorf("core: sampled-core runs are in-RAM only (the counting set is the whole dataset)")
	}
	if p.MinPts < 1 {
		return nil, nil, fmt.Errorf("core: MinPts must be at least 1")
	}
	d := store.Dims()
	if (p.Graph == GraphUSEC || p.Graph == GraphDelaunay) && d != 2 {
		return nil, nil, fmt.Errorf("core: the USEC and Delaunay strategies require 2-dimensional points")
	}
	if p.Graph == GraphApprox && p.Rho <= 0 {
		return nil, nil, fmt.Errorf("core: GraphApprox requires Rho > 0")
	}

	r := &oocRun{
		store:  store,
		p:      p,
		maxRes: maxResidentBytes,
		n:      store.NumPoints(),
		c:      store.NumCells(),
		stats:  &OOCStats{},
	}
	r.guf = unionfind.New(r.c)
	r.coreFlags = make([]bool, r.n) // escapes into Result.Core (scattered)
	r.cellHasCore = make([]bool, r.c)

	ex := p.Exec
	shards := store.NumShards()

	// Pass 1 — per shard turn: mark owned cells, collect core state for the
	// backward half of the window, build the intra-shard cell graph and
	// evaluate every backward cross edge.
	for s := 0; s < shards; s++ {
		if err := r.markTurn(s); err != nil {
			return nil, nil, err
		}
	}

	// Labels — from metadata only: the union-find over original cell ids and
	// the per-cell extents are all that's needed; no window is resident.
	var clock phaseClock
	if err := clock.phase(&p, "label"); err != nil {
		return nil, nil, err
	}
	roots, dense := unionfind.DenseRoots(ex, r.guf, func(g int32) bool {
		return r.cellHasCore[g]
	})
	numClusters := len(roots)
	r.labels = make([]int32, r.n)
	ex.ForGrain(r.c, 8, func(sc int) {
		lbl := int32(-1)
		if og := store.OrigCell(sc); r.cellHasCore[og] {
			lbl = dense[r.guf.Find(og)]
		}
		lo, hi := store.CellPointStart(sc), store.CellPointStart(sc+1)
		for i := lo; i < hi; i++ {
			if r.coreFlags[i] {
				r.labels[i] = lbl
			} else {
				r.labels[i] = -1
			}
		}
	})
	if err := clock.phase(&p, "done"); err != nil {
		return nil, nil, err
	}

	// Pass 2 — border attachment, again one window at a time. Core flags and
	// core-point labels are final, so each turn only needs the window's core
	// state (recollected from the global flags) plus the owned cells' points.
	r.border = make(map[int32][]int32)
	for s := 0; s < shards; s++ {
		if err := r.borderTurn(s); err != nil {
			return nil, nil, err
		}
	}

	// Scatter store-order outputs back to the writer's original point order.
	outLabels := make([]int32, r.n)
	outCore := make([]bool, r.n)
	origIdx := store.OrigIdx()
	ex.For(r.n, func(i int) {
		oi := origIdx[i]
		outLabels[oi] = r.labels[i]
		outCore[oi] = r.coreFlags[i]
	})
	return &Result{
		Core:        outCore,
		Labels:      outLabels,
		Border:      r.border,
		NumClusters: numClusters,
	}, r.stats, nil
}

type oocRun struct {
	store  *cellstore.Store
	p      Params
	maxRes int64
	n, c   int
	stats  *OOCStats

	guf         *unionfind.UF // over original cell ids
	coreFlags   []bool        // store order, global
	cellHasCore []bool        // original cell ids
	labels      []int32       // store order, global
	border      map[int32][]int32
}

// oocTurn is one resident window: the mapping, its cell structure, and a
// window pipeline whose core flags alias the global store-order array.
// Window-local cells are in store order, so the shard owns the contiguous
// local cells [ownLo, ownHi), and every local cell below ownLo belongs to an
// earlier shard.
type oocTurn struct {
	m      *cellstore.Mapping
	cells  *grid.Cells
	st     *pipeline
	l2orig []int32 // local cell -> original (writer) cell id
	ownLo  int32
	ownHi  int32
	pLo    int // store point index of the window's first row
}

func (t *oocTurn) close() {
	if t.st != nil {
		t.st.release()
	}
	if t.m != nil {
		t.m.Release()
	}
}

// openTurn maps shard s's halo window, stands the mapped range up as the
// window's cell structure directly — the store already holds the cell-major
// layout BuildCellMajor wants, so there is no per-window re-gather: no
// semisort, no coordinate hashing, and the pipeline's payload aliases the
// mapping itself (zero copy against the residency budget). The pipeline's
// coreFlags alias the global store-order array.
func (r *oocRun) openTurn(s int) (*oocTurn, error) {
	ex := r.p.Exec
	if err := ex.Err(); err != nil {
		return nil, err
	}
	store := r.store
	wlo, whi := store.Window(s)
	cellLo, _ := store.ShardCells(wlo)
	_, cellHi := store.ShardCells(whi)
	m, err := store.MapPoints(cellLo, cellHi)
	if err != nil {
		return nil, err
	}
	if r.maxRes > 0 && m.Bytes > r.maxRes {
		need := m.Bytes
		m.Release()
		return nil, fmt.Errorf("core: shard %d's halo window needs %d bytes resident, over the %d-byte budget; rewrite the store with more shards or raise the resident budget", s, need, r.maxRes)
	}
	r.stats.BytesMapped += m.Bytes
	if m.Bytes > r.stats.PeakResidentBytes {
		r.stats.PeakResidentBytes = m.Bytes
	}
	if span := whi - wlo + 1; span > r.stats.ShardsResidentPeak {
		r.stats.ShardsResidentPeak = span
	}

	t := &oocTurn{m: m, pLo: m.PointLo}
	ownLo, ownHi := store.ShardCells(s)
	t.ownLo, t.ownHi = int32(ownLo-cellLo), int32(ownHi-cellLo)

	d := store.Dims()
	pts := geom.Points{N: len(m.Data) / d, D: d, Data: m.Data}

	// Window-local cell offsets, absolute lattice coordinates and original
	// cell ids, straight from the store metadata.
	numCells := cellHi - cellLo
	cellStart := make([]int32, numCells+1)
	for i := 0; i <= numCells; i++ {
		cellStart[i] = int32(store.CellPointStart(cellLo+i) - t.pLo)
	}
	if int(cellStart[numCells]) != pts.N {
		t.close()
		return nil, fmt.Errorf("core: window of shard %d maps %d points, cell offsets say %d (corrupt store?)", s, pts.N, cellStart[numCells])
	}
	abs := make([]int64, numCells*d)
	t.l2orig = make([]int32, numCells)
	for i := 0; i < numCells; i++ {
		for j := 0; j < d; j++ {
			abs[i*d+j] = store.AbsCoord(cellLo+i, j)
		}
		t.l2orig[i] = store.OrigCell(cellLo + i)
	}
	cells := grid.BuildCellMajor(ex, pts, store.Eps(), cellStart, abs)
	cells.ComputeNeighbors(ex)
	t.cells = cells

	p := r.p
	if err := validateParams(cells, &p); err != nil {
		t.close()
		return nil, err
	}
	st := newPipeline(cells, p)
	t.st = st
	st.coreFlags = r.coreFlags[t.pLo : t.pLo+pts.N]
	st.initMarkTrees()
	st.initCoreState()
	return t, nil
}

// markTurn is one pass-1 window: mark the owned cells' core flags, collect
// core state for the backward half of the window (everything already marked),
// and evaluate the intra-shard and backward cross edges of the cell graph
// into the global union-find.
func (r *oocRun) markTurn(s int) error {
	t, err := r.openTurn(s)
	if err != nil {
		return err
	}
	defer t.close()
	st, ex := t.st, t.st.ex
	ownLo, ownHi := t.ownLo, t.ownHi

	if err := st.phase("mark"); err != nil {
		return err
	}
	st.markCells(int(ownLo), int(ownHi), nil)

	// Collect backward + owned cells. Backward cells were marked by earlier
	// turns; the global flags array carries their flags into this window.
	if err := st.phase("collect"); err != nil {
		return err
	}
	st.collectCells(0, int(ownHi))
	for g := ownLo; g < ownHi; g++ {
		if len(st.corePts[g]) > 0 {
			r.cellHasCore[t.l2orig[g]] = true
		}
	}

	if err := st.phase("graph"); err != nil {
		return err
	}
	var connect connectFunc
	if st.p.Graph == GraphDelaunay {
		// Intra-shard connectivity via this shard's own triangulation (it
		// contains the owned core subset's EMST; see RunOutOfCore).
		r.delaunayTurn(t)
		connect = st.bcpConnected // backward cross edges: exact BCP
	} else {
		connect = st.connectFn()
	}

	// Owned core cells, size-sorted so large cells connect their
	// surroundings early and prune later queries (Algorithm 3 line 3).
	order := make([]int32, 0, ownHi-ownLo)
	for g := ownLo; g < ownHi; g++ {
		if len(st.corePts[g]) > 0 {
			order = append(order, g)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if st.coreSizeLess(a, b) {
			return -1
		}
		if st.coreSizeLess(b, a) {
			return 1
		}
		return 0
	})
	ex.BlockedFor(len(order), 1, func(lo, hi int) {
		ws := st.getWS()
		for i := lo; i < hi; i++ {
			if st.cancelled() {
				break
			}
			g := order[i]
			og := t.l2orig[g]
			for _, h := range st.cells.Neighbors[g] {
				if h >= ownHi {
					continue // forward pair: that shard's turn evaluates it
				}
				if h >= ownLo {
					// Same shard: the higher original cell id evaluates the
					// pair (the monolithic dedup rule, on original ids).
					if st.p.Graph == GraphDelaunay || t.l2orig[h] >= og {
						continue
					}
				}
				r.oocPair(st, g, h, og, t.l2orig[h], connect, ws)
			}
		}
		st.putWS(ws)
	})
	return st.phase("done")
}

// oocPair is processPair against the global union-find over original cell
// ids: local cells carry the geometry, original ids carry the connectivity.
func (r *oocRun) oocPair(st *pipeline, lg, lh, og, oh int32, connect connectFunc, ws *workerScratch) {
	if len(st.corePts[lg]) == 0 || len(st.corePts[lh]) == 0 {
		return
	}
	if st.k.BoxBoxDistSqAt(st.coreBBLo, st.coreBBHi, lg, lh) > st.eps2 {
		return
	}
	if r.guf.SameSet(og, oh) {
		return
	}
	if connect(lg, lh, ws) {
		r.guf.Union(og, oh)
	}
}

// delaunayTurn triangulates the owned core points of one turn and unions the
// cells joined by an inter-cell edge of length at most eps — delaunayUnion
// redirected into the global original-id union-find.
func (r *oocRun) delaunayTurn(t *oocTurn) {
	st := t.st
	owned := st.corePts[t.ownLo:t.ownHi]
	total := 0
	for _, core := range owned {
		total += len(core)
	}
	if total == 0 || st.cancelled() {
		return
	}
	all := make([]int32, 0, total)
	for _, core := range owned {
		all = append(all, core...)
	}
	// With BuildCellMajor's identity Order, payload rows are window-local
	// store indices — the index space of Pts and CellOf — as they are.
	edges := delaunay.Triangulate(st.ex, st.cells.Pts, all)
	cellEdges := delaunay.FilterCellEdges(st.ex, edges, st.cells.Pts, st.cells.CellOf, st.eps)
	st.ex.For(len(cellEdges), func(i int) {
		r.guf.Union(t.l2orig[cellEdges[i].U], t.l2orig[cellEdges[i].V])
	})
}

// borderTurn is one pass-2 window: recollect the whole window's core state
// from the (now final) global flags, then run Algorithm 4 for the owned
// cells against the window-local labels view. Label writes land in the
// global store-order array through the subslice alias; candidate resolution
// only consults the owned cell's neighbors, all of which are in the window by
// the halo invariant.
func (r *oocRun) borderTurn(s int) error {
	t, err := r.openTurn(s)
	if err != nil {
		return err
	}
	defer t.close()
	st := t.st

	if err := st.phase("collect"); err != nil {
		return err
	}
	st.collectCells(0, t.cells.NumCells())

	if err := st.phase("border"); err != nil {
		return err
	}
	localLabels := r.labels[t.pLo : t.pLo+t.cells.Pts.N]
	multi := st.clusterBorder(int(t.ownLo), int(t.ownHi), localLabels)
	// Window point indices are store order offset by pLo; the result keys
	// points by the writer's original index.
	origIdx := r.store.OrigIdx()
	for p, m := range multi {
		r.border[int32(origIdx[t.pLo+int(p)])] = m
	}
	return st.phase("done")
}
