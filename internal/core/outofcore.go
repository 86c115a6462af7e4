package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

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
// documented as outside the MaxResidentBytes budget.
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
// The result equals Run's on the in-RAM cells. Each turn rebuilds the
// window's cell structure straight from the store (absolute lattice
// anchoring places every point in a bit-identically positioned cell, and the
// store preserves within-cell point order, so every geometric predicate
// evaluates on identical operands). Core flags are decomposable — a point's
// flag depends only on points within eps — and accumulate in a global
// store-order array. Every per-pair connectivity predicate is a pure
// function of the cell pair, so the components do not depend on which turn
// evaluates an edge, or whether it is skipped as already connected. All
// unions go into one global union-find over the *writer's* original cell
// ids, where union-by-min-index roots and DenseRoots label assignment
// reproduce the in-RAM run's labels bit-for-bit. Cross-window pairs are
// evaluated exactly once, by the later shard's turn (the earlier shard's
// cells are part of the later window by the halo invariant). Delaunay turns
// triangulate the shard's own core points — the triangulation of any point
// subset contains the subset's Euclidean MST, so it realizes every
// eps-connection within the shard — and join shards with exact BCP edges.
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
		if err := ex.Err(); err != nil {
			return nil, nil, err
		}
		if err := r.markTurn(s); err != nil {
			return nil, nil, err
		}
	}
	if err := ex.Err(); err != nil {
		return nil, nil, err
	}

	// Labels — from metadata only: the union-find over original cell ids and
	// the per-cell extents are all that's needed; no window is resident.
	start := time.Now()
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
	if p.Timings != nil {
		p.Timings.Label += time.Since(start)
	}

	// Pass 2 — border attachment, again one window at a time. Core flags and
	// core-point labels are final, so each turn only needs the window's core
	// state (recollected from the global flags) plus the owned cells' points.
	r.border = make(map[int32][]int32)
	for s := 0; s < shards; s++ {
		if err := ex.Err(); err != nil {
			return nil, nil, err
		}
		if err := r.borderTurn(s); err != nil {
			return nil, nil, err
		}
	}
	if err := ex.Err(); err != nil {
		return nil, nil, err
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
	borderMu    sync.Mutex
}

// oocTurn is one resident window: the mapping, its rebuilt cell structure,
// a window pipeline whose core flags alias the global store-order array, and
// the local/store/original cell index translations.
type oocTurn struct {
	m      *cellstore.Mapping
	cells  *grid.Cells
	st     *pipeline
	s2l    []int32 // store cell (offset by cellLo) -> local cell
	l2s    []int32 // local cell -> store cell
	l2orig []int32 // local cell -> original (writer) cell id
	cellLo int     // store cell range of the window
	cellHi int
	ownLo  int // store cell range owned by this turn's shard
	ownHi  int
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
// mapping itself (zero copy against the residency budget). Window-local cell
// ids equal store order, so the store/local translations are simple offsets.
// The pipeline's coreFlags alias the global store-order array.
func (r *oocRun) openTurn(s int) (*oocTurn, error) {
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
		return nil, fmt.Errorf("core: shard %d's halo window needs %d bytes resident, over the %d-byte budget; rewrite the store with more shards or raise MaxResidentBytes", s, need, r.maxRes)
	}
	r.stats.BytesMapped += m.Bytes
	if m.Bytes > r.stats.PeakResidentBytes {
		r.stats.PeakResidentBytes = m.Bytes
	}
	if span := whi - wlo + 1; span > r.stats.ShardsResidentPeak {
		r.stats.ShardsResidentPeak = span
	}

	t := &oocTurn{m: m, cellLo: cellLo, cellHi: cellHi, pLo: m.PointLo}
	t.ownLo, t.ownHi = store.ShardCells(s)

	d := store.Dims()
	pts := geom.Points{N: len(m.Data) / d, D: d, Data: m.Data}
	ex := r.p.Exec

	// Window-local cell offsets and absolute lattice coordinates, straight
	// from the store metadata.
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
	for i := 0; i < numCells; i++ {
		for j := 0; j < d; j++ {
			abs[i*d+j] = store.AbsCoord(cellLo+i, j)
		}
	}
	cells := grid.BuildCellMajor(ex, pts, store.Eps(), cellStart, abs)
	if d <= 3 {
		cells.ComputeNeighborsEnum(ex)
	} else {
		cells.ComputeNeighborsKD(ex)
	}
	t.cells = cells

	// Local cell ids are store order: the translations are identity/offset.
	t.s2l = make([]int32, numCells)
	t.l2s = make([]int32, numCells)
	t.l2orig = make([]int32, numCells)
	for i := 0; i < numCells; i++ {
		t.s2l[i] = int32(i)
		t.l2s[i] = int32(cellLo + i)
		t.l2orig[i] = store.OrigCell(cellLo + i)
	}

	p2 := r.p
	p2.Timings = nil
	p2.PhaseHook = nil
	if err := validateParams(cells, &p2); err != nil {
		t.close()
		return nil, err
	}
	st := newPipeline(cells, p2)
	t.st = st
	st.coreFlags = r.coreFlags[t.pLo : t.pLo+pts.N]
	if st.p.Mark == MarkQuadtree {
		st.rs.allTrees = lazyTreeBuf(st.rs.allTrees, cells.NumCells())
		st.allTrees = st.rs.allTrees
	}
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
	owned := t.s2l[t.ownLo-t.cellLo : t.ownHi-t.cellLo]

	if r.p.PhaseHook != nil {
		r.p.PhaseHook("mark")
	}
	start := time.Now()
	ex.BlockedFor(len(owned), 1, func(lo, hi int) {
		ws := st.getWS()
		for i := lo; i < hi; i++ {
			if st.cancelled() {
				break
			}
			st.markCellCore(int(owned[i]), ws)
		}
		st.putWS(ws)
	})
	if r.p.Timings != nil {
		r.p.Timings.Mark += time.Since(start)
	}

	// Collect backward + owned cells. Backward cells were marked by earlier
	// turns; the global flags array carries their flags into this window.
	start = time.Now()
	ex.ForGrain(t.ownHi-t.cellLo, 1, func(i int) {
		if st.cancelled() {
			return
		}
		st.collectCellCore(int(t.s2l[i]))
	})
	for i, lg := range owned {
		if len(st.corePts[lg]) > 0 {
			r.cellHasCore[r.store.OrigCell(t.ownLo+i)] = true
		}
	}
	if r.p.Timings != nil {
		r.p.Timings.Collect += time.Since(start)
	}
	if st.cancelled() {
		return ex.Err()
	}

	if r.p.PhaseHook != nil {
		r.p.PhaseHook("graph")
	}
	start = time.Now()
	var connect connectFunc
	if st.p.Graph == GraphDelaunay {
		// Intra-shard connectivity via this shard's own triangulation (it
		// contains the owned core subset's EMST; see RunOutOfCore).
		r.delaunayTurn(t, owned)
		connect = st.bcpConnected // backward cross edges: exact BCP
	} else {
		connect = st.connectFn()
	}

	// Owned core cells, size-sorted so large cells connect their
	// surroundings early and prune later queries (Algorithm 3 line 3).
	order := make([]int32, 0, len(owned))
	for _, lg := range owned {
		if len(st.corePts[lg]) > 0 {
			order = append(order, lg)
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
	ownLo, ownHi := int32(t.ownLo), int32(t.ownHi)
	ex.BlockedFor(len(order), 1, func(lo, hi int) {
		ws := st.getWS()
		for i := lo; i < hi; i++ {
			if st.cancelled() {
				break
			}
			lg := order[i]
			og := t.l2orig[lg]
			for _, lh := range st.cells.Neighbors[lg] {
				sh := t.l2s[lh]
				if sh >= ownHi {
					continue // forward pair: that shard's turn evaluates it
				}
				if sh >= ownLo {
					// Same shard: the higher original cell id evaluates the
					// pair (the monolithic dedup rule, on original ids).
					if st.p.Graph == GraphDelaunay || t.l2orig[lh] >= og {
						continue
					}
				}
				r.oocPair(st, lg, lh, og, t.l2orig[lh], connect, ws)
			}
		}
		st.putWS(ws)
	})
	if r.p.Timings != nil {
		r.p.Timings.Graph += time.Since(start)
	}
	return ex.Err()
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
func (r *oocRun) delaunayTurn(t *oocTurn, owned []int32) {
	st := t.st
	total := 0
	for _, lg := range owned {
		total += len(st.corePts[lg])
	}
	if total == 0 || st.cancelled() {
		return
	}
	all := make([]int32, 0, total)
	for _, lg := range owned {
		all = append(all, st.corePts[lg]...)
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
// cells' non-core points against the window-local labels view. Label writes
// land in the global store-order array through the subslice alias; candidate
// resolution only consults the owned cell's neighbors, all of which are in
// the window by the halo invariant.
func (r *oocRun) borderTurn(s int) error {
	t, err := r.openTurn(s)
	if err != nil {
		return err
	}
	defer t.close()
	st, ex := t.st, t.st.ex
	cells := t.cells

	start := time.Now()
	ex.ForGrain(t.cellHi-t.cellLo, 1, func(i int) {
		if st.cancelled() {
			return
		}
		st.collectCellCore(int(t.s2l[i]))
	})
	if r.p.Timings != nil {
		r.p.Timings.Collect += time.Since(start)
	}
	if st.cancelled() {
		return ex.Err()
	}

	if r.p.PhaseHook != nil {
		r.p.PhaseHook("border")
	}
	start = time.Now()
	localLabels := r.labels[t.pLo : t.pLo+cells.Pts.N]
	owned := t.s2l[t.ownLo-t.cellLo : t.ownHi-t.cellLo]
	origIdx := r.store.OrigIdx()
	ex.BlockedFor(len(owned), 1, func(lo, hi int) {
		ws := st.getWS()
		var multiP []int32   // original point ids of multi-cluster borders
		var multiM [][]int32 // their membership lists
		for i := lo; i < hi; i++ {
			if st.cancelled() {
				break
			}
			lg := owned[i]
			g := int(lg)
			if cells.CellSize(g) >= st.p.MinPts {
				continue // all points are core (Sample is rejected up front)
			}
			built := false
			orig := cells.PointsOf(g) // window-local store order; == rows here
			for i, p := range cells.RowsOf(g) {
				op := orig[i]
				if st.coreFlags[op] {
					continue
				}
				if !built {
					st.borderCellCandidates(lg, localLabels, ws)
					built = true
				}
				if len(ws.sure) == 0 && len(ws.cand) == 0 {
					break
				}
				found := append(ws.found[:0], ws.sure...)
				for _, h := range ws.cand {
					found = st.borderScanCell(p, h, localLabels, found)
				}
				ws.found = found // keep grown capacity
				if len(found) > 0 {
					localLabels[op] = found[0]
					if len(found) > 1 {
						multiP = append(multiP, int32(origIdx[t.pLo+int(op)]))
						multiM = append(multiM, append([]int32(nil), found...))
					}
				}
			}
		}
		st.putWS(ws)
		if len(multiP) > 0 {
			r.borderMu.Lock()
			for i, p := range multiP {
				r.border[p] = multiM[i]
			}
			r.borderMu.Unlock()
		}
	})
	if r.p.Timings != nil {
		r.p.Timings.Border += time.Since(start)
	}
	return ex.Err()
}
