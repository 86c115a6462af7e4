package core

import (
	"sort"
	"sync"

	"pdbscan/internal/usec"
)

// Canonical frames for the USEC separating line (2D). The envelope cell is
// always the one below (or left of) the line; a query cell above uses dirUp,
// a query cell to the right uses dirRight with coordinates swapped so the
// line is horizontal in the canonical (u, v) frame.
const (
	dirUp    = iota // vertical separation: u = x, v = y
	dirRight        // horizontal separation: u = y, v = x
	numDirs
)

// usecCell is the per-core-cell lazy USEC state: core points sorted by x and
// by y (the "two copies" of Section 4.4), plus one wavefront per direction.
type usecCell struct {
	sortOnce sync.Once
	byX, byY []int32 // core point indices sorted by x / by y

	envOnce [numDirs]sync.Once
	env     [numDirs]*usec.Envelope
}

func (st *pipeline) initUSEC() {
	st.rs.usecCells = usecCellBuf(st.rs.usecCells, st.cells.NumCells())
	st.usecCells = st.rs.usecCells
}

// sorted ensures and returns the coordinate-sorted core point lists of cell g.
func (st *pipeline) sorted(g int32) *usecCell {
	uc := &st.usecCells[g]
	uc.sortOnce.Do(func() {
		core := st.corePts[g]
		uc.byX = make([]int32, len(core))
		copy(uc.byX, core)
		uc.byY = make([]int32, len(core))
		copy(uc.byY, core)
		data := st.pts.Data // the payload: core lists hold its rows
		sort.Slice(uc.byX, func(i, j int) bool {
			return data[2*uc.byX[i]] < data[2*uc.byX[j]]
		})
		sort.Slice(uc.byY, func(i, j int) bool {
			return data[2*uc.byY[i]+1] < data[2*uc.byY[j]+1]
		})
	})
	return uc
}

// transform maps payload row p into the canonical frame of dir.
func (st *pipeline) transform(p int32, dir int) (u, v float64) {
	x := st.pts.Data[2*p]
	y := st.pts.Data[2*p+1]
	if dir == dirUp {
		return x, y
	}
	return y, x
}

// envelope returns (building on first use) cell g's wavefront facing dir.
func (st *pipeline) envelope(g int32, dir int) *usec.Envelope {
	uc := st.sorted(g)
	uc.envOnce[dir].Do(func() {
		// Centers sorted by canonical u: x-order for the vertical frame,
		// y-order for the horizontal one.
		src := uc.byX
		if dir == dirRight {
			src = uc.byY
		}
		us := make([]float64, len(src))
		vs := make([]float64, len(src))
		for i, p := range src {
			us[i], vs[i] = st.transform(p, dir)
		}
		uc.env[dir] = usec.BuildEnvelope(us, vs, st.eps)
	})
	return uc.env[dir]
}

// usecConnected answers the cell connectivity query with USEC: pick an
// axis-parallel line separating the two cells' core bounding boxes (one
// always exists: cells are disjoint axis-aligned boxes), take the wavefront
// of the cell below/left of the line, and test whether any core point of the
// other cell lies inside the union of circles.
func (st *pipeline) usecConnected(g, h int32, ws *workerScratch) bool {
	gLo := st.coreBBLo[2*g : 2*g+2]
	gHi := st.coreBBHi[2*g : 2*g+2]
	hLo := st.coreBBLo[2*h : 2*h+2]
	hHi := st.coreBBHi[2*h : 2*h+2]

	var env, query int32
	var dir int
	switch {
	case gLo[1] >= hHi[1]: // g above h
		env, query, dir = h, g, dirUp
	case hLo[1] >= gHi[1]: // h above g
		env, query, dir = g, h, dirUp
	case gLo[0] >= hHi[0]: // g right of h
		env, query, dir = h, g, dirRight
	case hLo[0] >= gHi[0]: // h right of g
		env, query, dir = g, h, dirRight
	default:
		// Unreachable for grid/box cells (disjoint boxes always separate
		// along an axis); kept as a safe fallback.
		return st.bcpConnected(g, h, ws)
	}
	e := st.envelope(env, dir)
	for _, p := range st.sorted(query).byX {
		u, v := st.transform(p, dir)
		if e.Covers(u, v) {
			return true
		}
	}
	return false
}
