package grid

import (
	"fmt"
	"slices"

	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
)

// Partition splits the non-empty cells of a grid construction into NumShards
// contiguous spatial blocks ("shards") along one axis of the absolute cell
// lattice. Because grid cells are anchored to the absolute side-grid lattice
// (Cells.Anchor, CellCoord), a shard is a half-open interval of absolute
// lattice coordinates on the split axis: every build of the same point set
// produces the same shards, which is what makes an out-of-core cell store's
// layout reproducible.
//
// Each shard also knows its halo — the cells owned by other shards that lie
// within eps of one of its owned cells (exactly the cross-shard entries of
// the owned cells' Neighbors lists, so the halo is eps-wide by the same
// cube-distance test every other phase uses).
type Partition struct {
	// NumShards is the number of shards actually produced. It never exceeds
	// the number of distinct occupied lattice coordinates on the split axis
	// (a thinner slab could not keep shards contiguous), so it may be lower
	// than requested.
	NumShards int
	// Axis is the dimension the lattice was cut along: the axis with the
	// most distinct occupied lattice coordinates — i.e. the most slabs, so
	// the requested shard count clamps as little as possible (ties to the
	// widest coordinate span, then the lowest axis).
	Axis int
	// ShardOf[g] is the shard owning cell g.
	ShardOf []int32
	// Owned[s] lists the cells owned by shard s, ascending.
	Owned [][]int32
	// Halo[s] lists the cells within eps of shard s's owned cells but owned
	// by other shards, ascending.
	Halo [][]int32
}

// MakePartition partitions the cells of a grid construction into at most
// `shards` contiguous spatial blocks of roughly equal point count, with
// eps-wide halos. Requires the grid layout (Coords non-nil) and computed
// Neighbors. The executor sizes the parallel passes (nil = default pool).
//
// The split axis and cut positions depend only on the occupied lattice (not
// on cell enumeration order), so equal point sets yield equal partitions.
func MakePartition(ex *parallel.Pool, c *Cells, shards int) (*Partition, error) {
	if c.Coords == nil {
		return nil, fmt.Errorf("grid: MakePartition requires the grid layout (box cells have no lattice)")
	}
	if c.Neighbors == nil {
		return nil, fmt.Errorf("grid: MakePartition requires computed neighbor lists")
	}
	if shards < 1 {
		return nil, fmt.Errorf("grid: shard count must be >= 1, got %d", shards)
	}
	d := c.Pts.D
	numCells := c.NumCells()
	p := &Partition{NumShards: 1, ShardOf: make([]int32, numCells)}
	if numCells == 0 {
		p.Owned = [][]int32{nil}
		p.Halo = [][]int32{nil}
		return p, nil
	}

	// Split axis: the one with the most distinct occupied coordinates
	// (slabs), so the shard count clamps as little as possible — a sparse
	// axis can span a huge coordinate range yet offer only a couple of
	// slabs to cut between. Ties go to the wider span, then the lower axis.
	// One parallel sort per axis; the partition cost stays well below one
	// clustering phase.
	axis, bestSlabs, bestSpan := 0, -1, int64(-1)
	axCoords := make([]int64, numCells)
	for j := 0; j < d; j++ {
		ex.For(numCells, func(g int) { axCoords[g] = c.AbsCoord(g, j) })
		prim.Sort(ex, axCoords, func(a, b int64) bool { return a < b })
		slabsJ := 1
		for i := 1; i < numCells; i++ {
			if axCoords[i] != axCoords[i-1] {
				slabsJ++
			}
		}
		spanJ := axCoords[numCells-1] - axCoords[0]
		if slabsJ > bestSlabs || (slabsJ == bestSlabs && spanJ > bestSpan) {
			axis, bestSlabs, bestSpan = j, slabsJ, spanJ
		}
	}
	p.Axis = axis

	// Order cells by (axis coordinate, cell index) and cut the order into
	// point-balanced runs, never splitting cells that share an axis
	// coordinate (shards must be coordinate intervals).
	order := make([]int32, numCells)
	ex.For(numCells, func(g int) { order[g] = int32(g) })
	prim.Sort(ex, order, func(a, b int32) bool {
		ca, cb := c.AbsCoord(int(a), axis), c.AbsCoord(int(b), axis)
		if ca != cb {
			return ca < cb
		}
		return a < b
	})
	totalPts := 0
	for _, g := range order {
		totalPts += c.CellSize(int(g))
	}
	slabs := bestSlabs // distinct coordinates on the chosen axis
	if shards > slabs {
		shards = slabs
	}
	p.NumShards = shards
	p.Owned = make([][]int32, shards)
	p.Halo = make([][]int32, shards)

	// Greedy balanced cuts: close shard s once its cumulative point count
	// reaches s+1 shares of the total, advancing only at slab boundaries. A
	// shard is also closed when the remaining slabs are only just enough to
	// give every remaining shard one, so point skew never starves the tail
	// shards down to empty.
	s, cum, slabIdx := 0, 0, -1
	for i, g := range order {
		if i == 0 || c.AbsCoord(int(g), axis) != c.AbsCoord(int(order[i-1]), axis) {
			slabIdx++
			if i > 0 && s < shards-1 &&
				(cum*shards >= (s+1)*totalPts || slabs-slabIdx <= shards-1-s) {
				s++
			}
		}
		p.ShardOf[g] = int32(s)
		p.Owned[s] = append(p.Owned[s], g)
		cum += c.CellSize(int(g))
	}
	// Owned lists ascending by cell index (they were appended in axis order).
	ex.ForGrain(shards, 1, func(s int) { slices.Sort(p.Owned[s]) })

	// Halo, per shard: scan owned cells' neighbor lists for cross-shard
	// entries. Dedup by sort+compact over the collected candidates — their
	// count is bounded by the cut-adjacent cells' neighbor lists, so no
	// per-shard O(numCells) scratch is needed.
	ex.ForGrain(shards, 1, func(s int) {
		var halo []int32
		for _, g := range p.Owned[s] {
			for _, h := range c.Neighbors[g] {
				if p.ShardOf[h] != int32(s) {
					halo = append(halo, h)
				}
			}
		}
		slices.Sort(halo)
		p.Halo[s] = slices.Compact(halo)
	})
	return p, nil
}
