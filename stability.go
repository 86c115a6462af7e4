package pdbscan

import (
	"fmt"
	"math"
	"slices"
)

// StableCluster describes one cluster selected by ExtractStable.
type StableCluster struct {
	// Label is the cluster's index in [0, NumClusters): StableResult.Labels
	// uses these values.
	Label int32
	// Size is the number of points labeled with the cluster.
	Size int
	// Stability is the HDBSCAN* stability score the cluster was selected
	// for: the sum over its points of (lambda_point - lambda_birth), with
	// lambda = 1/eps.
	Stability float64
	// MaxEps is the radius at which the cluster first exists as its own
	// component (the radius just below its parent's split, or the build eps
	// for a root cluster).
	MaxEps float64
}

// StableResult is the flat clustering ExtractStable selects from the
// dendrogram: the most stable non-overlapping set of clusters across all
// density levels at once, rather than the single level a CutEps picks.
type StableResult struct {
	// Labels[i] is the selected cluster of point i, or -1 for noise.
	Labels []int32
	// Clusters describes the selected clusters, indexed by label.
	Clusters []StableCluster
	// NumClusters is len(Clusters).
	NumClusters int
	// MinClusterSize is the condensation threshold the extraction ran with.
	MinClusterSize int
}

// ExtractStable runs HDBSCAN*-style cluster extraction over the hierarchy:
// the linkage forest is condensed (components that never reach
// minClusterSize points are treated as their parents shedding noise, not as
// clusters), each condensed cluster is scored by its stability, and the
// most stable antichain of clusters is selected bottom-up. minClusterSize
// <= 0 means the default max(2, MinPts); values of 1 are rejected — every
// point would be its own maximally-stable cluster.
//
// The hierarchy is eps-bounded, so the extraction sees density levels in
// (0, Eps()] only: components that merge beyond the build radius stay
// separate root clusters, and points with no MinPts-neighborhood within the
// build radius are always noise. ExtractStable is deterministic and safe to
// call concurrently with itself and with cuts.
func (h *Hierarchy) ExtractStable(minClusterSize int) (*StableResult, error) {
	if minClusterSize == 1 {
		return nil, fmt.Errorf("pdbscan: minClusterSize must be >= 2 (or <= 0 for the default), got 1")
	}
	m := minClusterSize
	if m <= 0 {
		m = h.minPts
		if m < 2 {
			m = 2
		}
	}
	f := h.linkageForest()
	cl := h.condense(f, int32(m))
	return h.selectStable(f, cl, m), nil
}

// linkageForest is the binary merge tree of the MSF replay: nodes 0..n-1 are
// the points; node n+t is the component formed by edge t. Children always
// have smaller ids than their parent, so one ascending pass computes sizes.
//
// Merges at one weight nest in whatever order the forest lists their edges,
// and different minimum spanning forests of one graph list them differently;
// condense therefore reads every run of merges at one weight as a single
// multi-way merge, and orders siblings by minPt, which — like the sizes and
// weights — is the same for every forest.
type linkageForest struct {
	n           int
	left, right []int32   // children of node n+t
	w2          []float64 // squared edge weight of node n+t
	dist        []float64 // sqrt edge weight of node n+t
	size        []int32   // subtree point count, all nodes
	minPt       []int32   // least point index in the subtree, all nodes
	parent      []int32   // parent node id, -1 for roots
	lambdaCap   float64   // 1/dist clamp for zero-length merges
}

func (h *Hierarchy) linkageForest() *linkageForest {
	n := len(h.cd2)
	mEdges := len(h.edges)
	f := &linkageForest{
		n:     n,
		left:  make([]int32, mEdges),
		right: make([]int32, mEdges),
		w2:    make([]float64, mEdges),
		dist:  make([]float64, mEdges),
		size:  make([]int32, n+mEdges),
		minPt: make([]int32, n+mEdges),
		parent: func() []int32 {
			p := make([]int32, n+mEdges)
			for i := range p {
				p[i] = -1
			}
			return p
		}(),
	}
	for i := 0; i < n; i++ {
		f.size[i] = 1
		f.minPt[i] = int32(i)
	}
	// Serial union-find replay in edge order; nodeOf[root] tracks the
	// current tree node of each live component.
	uf := make([]int32, n)
	nodeOf := make([]int32, n)
	for i := range uf {
		uf[i] = int32(i)
		nodeOf[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]] // path halving
			x = uf[x]
		}
		return x
	}
	minPos := math.Inf(1)
	for t, e := range h.edges {
		ra, rb := find(e.A), find(e.B)
		na, nb := nodeOf[ra], nodeOf[rb]
		uf[ra] = rb
		id := int32(n + t)
		f.left[t], f.right[t] = na, nb
		f.w2[t] = e.W2
		d := math.Sqrt(e.W2)
		f.dist[t] = d
		if d > 0 && d < minPos {
			minPos = d
		}
		f.size[id] = f.size[na] + f.size[nb]
		f.minPt[id] = min(f.minPt[na], f.minPt[nb])
		f.parent[na], f.parent[nb] = id, id
		nodeOf[rb] = id
	}
	// lambda = 1/d diverges on zero-length merges (duplicate points);
	// clamp to twice the lambda of the smallest positive merge distance,
	// so duplicates merge "first" but with a finite stability weight.
	switch {
	case !math.IsInf(minPos, 1):
		f.lambdaCap = 2 / minPos
	case h.eps > 0:
		f.lambdaCap = 2 / h.eps
	default:
		f.lambdaCap = 1
	}
	return f
}

func (f *linkageForest) lambda(d float64) float64 {
	if d <= 0 {
		return f.lambdaCap
	}
	l := 1 / d
	if l > f.lambdaCap {
		return f.lambdaCap
	}
	return l
}

// condensed is the condensed tree: one entry per cluster that ever held
// minClusterSize points, parents before children.
type condensed struct {
	parent    []int32   // condensed parent cluster, -1 for roots
	birthL    []float64 // lambda at which the cluster appears
	stability []float64
	// pointCid[p] is the condensed cluster point p last belonged to (-1:
	// never in one); pointL[p] the lambda at which it fell out.
	pointCid []int32
	pointL   []float64
}

// condense walks each sufficiently-large root of the linkage forest top-down
// (iteratively — chain-shaped linkages are O(n) deep), one weight level at a
// time: all merges at one weight form a single multi-way merge, whose
// children are the components just below that weight. At each level, two or
// more big children start new clusters; one big child continues the current
// cluster; no big child dissolves it. Small children's points fall out as
// noise-at-that-level in every case.
//
// The levels, their children and (through minPt) the order in which
// clusters are created depend only on the graph, not on which minimum
// spanning forest h holds, and every cluster's stability is summed level by
// level in that order, so the result is the same for all of them.
func (h *Hierarchy) condense(f *linkageForest, m int32) *condensed {
	n := int32(f.n)
	cl := &condensed{
		pointCid: make([]int32, n),
		pointL:   make([]float64, n),
	}
	for i := range cl.pointCid {
		cl.pointCid[i] = -1
	}
	newCluster := func(parent int32, birth float64) int32 {
		id := int32(len(cl.parent))
		cl.parent = append(cl.parent, parent)
		cl.birthL = append(cl.birthL, birth)
		cl.stability = append(cl.stability, 0)
		return id
	}
	byMinPt := func(a, b int32) int { return int(f.minPt[a]) - int(f.minPt[b]) }
	// fallOut assigns every leaf under node to cid at level lam.
	var leafStack []int32
	fallOut := func(node, cid int32, lam float64) {
		leafStack = append(leafStack[:0], node)
		for len(leafStack) > 0 {
			nd := leafStack[len(leafStack)-1]
			leafStack = leafStack[:len(leafStack)-1]
			if nd < n {
				cl.pointCid[nd] = cid
				cl.pointL[nd] = lam
				continue
			}
			t := nd - n
			leafStack = append(leafStack, f.left[t], f.right[t])
		}
	}
	// levelChildren returns the children of node's level, ordered by
	// minPt: a child merged at node's own weight is expanded into its
	// children.
	var kids, expand []int32
	levelChildren := func(node int32) []int32 {
		t := node - n
		kids = kids[:0]
		expand = append(expand[:0], f.left[t], f.right[t])
		for len(expand) > 0 {
			c := expand[len(expand)-1]
			expand = expand[:len(expand)-1]
			if c >= n && f.w2[c-n] == f.w2[t] {
				expand = append(expand, f.left[c-n], f.right[c-n])
				continue
			}
			kids = append(kids, c)
		}
		slices.SortFunc(kids, byMinPt)
		return kids
	}
	type frame struct {
		node int32
		cid  int32
	}
	var stack []frame
	var roots []int32
	for id := int32(0); id < n+int32(len(f.dist)); id++ {
		if f.parent[id] == -1 && f.size[id] >= m {
			roots = append(roots, id)
		}
	}
	slices.SortFunc(roots, byMinPt)
	rootL := f.lambda(h.eps)
	for _, r := range roots {
		// A root with >= m points: a selectable cluster born at the build
		// radius (the hierarchy answers no level above it).
		stack = append(stack, frame{r, newCluster(-1, rootL)})
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, cid := fr.node, fr.cid
		for {
			// node has >= m points, so it is an internal node (leaves have
			// size 1 < m).
			lam := f.lambda(f.dist[node-n])
			next, big := int32(-1), 0
			for _, k := range levelChildren(node) {
				if f.size[k] >= m {
					next = k
					big++
				}
			}
			// The points that leave the cluster here all persist to lam: on
			// a true split that is all of them, otherwise the small side.
			persist := f.size[node]
			if big == 1 {
				persist -= f.size[next]
			}
			cl.stability[cid] += float64(persist) * (lam - cl.birthL[cid])
			for _, k := range kids {
				switch {
				case f.size[k] < m:
					fallOut(k, cid, lam)
				case big >= 2:
					stack = append(stack, frame{k, newCluster(cid, lam)})
				}
			}
			if big != 1 {
				break
			}
			node = next
		}
	}
	return cl
}

// selectStable picks the most stable antichain: bottom-up, a cluster is
// selected when its own stability is at least the sum of its children's
// selected stabilities; top-down, selected clusters with a selected
// ancestor yield to it. Creation order has parents before children, so a
// reverse pass is the bottom-up order.
func (h *Hierarchy) selectStable(f *linkageForest, cl *condensed, m int) *StableResult {
	nc := len(cl.parent)
	childSum := make([]float64, nc)
	selStab := make([]float64, nc)
	selected := make([]bool, nc)
	hasChild := make([]bool, nc)
	for i := 0; i < nc; i++ {
		if p := cl.parent[i]; p >= 0 {
			hasChild[p] = true
		}
	}
	for i := nc - 1; i >= 0; i-- {
		if !hasChild[i] || cl.stability[i] >= childSum[i] {
			selStab[i] = cl.stability[i]
			selected[i] = true
		} else {
			selStab[i] = childSum[i]
		}
		if p := cl.parent[i]; p >= 0 {
			childSum[p] += selStab[i]
		}
	}
	// finalOf[i]: the label of the selected cluster covering i (itself or
	// its nearest selected ancestor), -1 when none.
	finalOf := make([]int32, nc)
	var clusters []StableCluster
	for i := 0; i < nc; i++ {
		inherit := int32(-1)
		if p := cl.parent[i]; p >= 0 {
			inherit = finalOf[p]
		}
		switch {
		case inherit >= 0:
			finalOf[i] = inherit
		case selected[i]:
			finalOf[i] = int32(len(clusters))
			clusters = append(clusters, StableCluster{
				Label:     int32(len(clusters)),
				Stability: cl.stability[i],
				MaxEps:    1 / cl.birthL[i],
			})
		default:
			finalOf[i] = -1
		}
	}
	labels := make([]int32, f.n)
	for p := 0; p < f.n; p++ {
		labels[p] = -1
		if cid := cl.pointCid[p]; cid >= 0 {
			if lbl := finalOf[cid]; lbl >= 0 {
				labels[p] = lbl
				clusters[lbl].Size++
			}
		}
	}
	return &StableResult{
		Labels:         labels,
		Clusters:       clusters,
		NumClusters:    len(clusters),
		MinClusterSize: m,
	}
}
