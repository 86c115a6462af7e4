package core

import "fmt"

// IncrementalState is the serializable image of an Incremental cache: the
// per-point-slot core flags and the cell-graph edge booleans, flattened to
// plain arrays. Everything else a run needs (core lists, their bounding
// boxes, quadtrees) is re-derived from the flags by every run, so a snapshot
// stays compact and restore stays O(state). The codec lives with the caller;
// this package defines only the shape and its validation.
type IncrementalState struct {
	Valid  bool
	MinPts int

	CoreFlags []bool // per point slot

	// Flattened edge cache: for cell g, entries EdgeOff[g]:EdgeOff[g+1] of
	// EdgeH (ascending h < g) and EdgeConn. len(EdgeOff) is the cell-slot
	// count plus one.
	EdgeOff  []int32
	EdgeH    []int32
	EdgeConn []bool
	EdgeKind int
	EdgeRho  float64
}

// ExportState captures the cache. The returned value aliases nothing.
func (inc *Incremental) ExportState() *IncrementalState {
	st := &IncrementalState{
		Valid:     inc.valid,
		MinPts:    inc.minPts,
		CoreFlags: append([]bool(nil), inc.coreFlags...),
		EdgeOff:   make([]int32, len(inc.edges)+1),
		EdgeKind:  int(inc.edgeKind),
		EdgeRho:   inc.edgeRho,
	}
	for g, es := range inc.edges {
		for _, e := range es {
			st.EdgeH = append(st.EdgeH, e.h)
			st.EdgeConn = append(st.EdgeConn, e.conn)
		}
		st.EdgeOff[g+1] = int32(len(st.EdgeH))
	}
	return st
}

// RestoreIncremental rebuilds an Incremental from an exported state; the
// cell count is taken from the edge table. Every flattened extent is
// validated so a corrupt snapshot errors instead of producing out-of-range
// slot references.
func RestoreIncremental(st *IncrementalState) (*Incremental, error) {
	numCells := len(st.EdgeOff) - 1
	if numCells < 0 || st.EdgeOff[0] != 0 {
		return nil, fmt.Errorf("core: restore: edge offsets must start with 0")
	}
	if len(st.EdgeConn) != len(st.EdgeH) {
		return nil, fmt.Errorf("core: restore: %d edge booleans for %d edges", len(st.EdgeConn), len(st.EdgeH))
	}
	if st.EdgeKind != int(GraphBCP) && st.EdgeKind != int(GraphApprox) {
		return nil, fmt.Errorf("core: restore: unknown edge kind %d", st.EdgeKind)
	}
	if st.MinPts < 0 {
		return nil, fmt.Errorf("core: restore: MinPts %d", st.MinPts)
	}
	inc := NewIncremental()
	inc.valid = st.Valid
	inc.minPts = st.MinPts
	inc.coreFlags = append([]bool(nil), st.CoreFlags...)
	inc.edges = make([][]edgeEntry, numCells)
	inc.edgeKind = GraphStrategy(st.EdgeKind)
	inc.edgeRho = st.EdgeRho
	for g := 0; g < numCells; g++ {
		elo, ehi := st.EdgeOff[g], st.EdgeOff[g+1]
		if elo > ehi || int(ehi) > len(st.EdgeH) {
			return nil, fmt.Errorf("core: restore: cell %d edge extent [%d,%d) out of range", g, elo, ehi)
		}
		if elo != ehi {
			es := make([]edgeEntry, 0, ehi-elo)
			last := int32(-1)
			for i := elo; i < ehi; i++ {
				h := st.EdgeH[i]
				if h <= last || int(h) >= numCells || h >= int32(g) {
					return nil, fmt.Errorf("core: restore: cell %d edge list not ascending below g (h=%d)", g, h)
				}
				last = h
				es = append(es, edgeEntry{h: h, conn: st.EdgeConn[i]})
			}
			inc.edges[g] = es
		}
	}
	return inc, nil
}
