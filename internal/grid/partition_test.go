package grid

import (
	"math/rand"
	"slices"
	"testing"

	"pdbscan/internal/geom"
)

func partitionTestCells(t *testing.T, n, d int, seed int64, eps float64) *Cells {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := range data {
		// Stretch the first axis so the split axis is predictable.
		scale := 8.0
		if i%d == 0 {
			scale = 40.0
		}
		data[i] = rng.Float64() * scale
	}
	pts := geom.Points{N: n, D: d, Data: data}
	c := BuildGrid(nil, pts, eps)
	c.ComputeNeighborsEnum(nil)
	return c
}

// TestPartitionInvariants checks the structural contract of MakePartition:
// exhaustive disjoint ownership, contiguous coordinate intervals per shard,
// and halos that are exactly the cross-shard neighbors of owned cells.
func TestPartitionInvariants(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		c := partitionTestCells(t, 900, d, int64(d), 1.5)
		for _, k := range []int{1, 2, 3, 7, 16} {
			p, err := MakePartition(nil, c, k)
			if err != nil {
				t.Fatalf("d=%d k=%d: %v", d, k, err)
			}
			if p.NumShards < 1 || p.NumShards > k {
				t.Fatalf("d=%d k=%d: NumShards=%d", d, k, p.NumShards)
			}
			if p.Axis != 0 {
				t.Fatalf("d=%d k=%d: split axis %d, want 0 (most slabs)", d, k, p.Axis)
			}
			// Exhaustive disjoint ownership, Owned aligned with ShardOf.
			seen := make([]bool, c.NumCells())
			for s, owned := range p.Owned {
				if len(owned) == 0 {
					t.Fatalf("d=%d k=%d: shard %d is empty", d, k, s)
				}
				if !slices.IsSorted(owned) {
					t.Fatalf("d=%d k=%d: Owned[%d] not ascending", d, k, s)
				}
				for _, g := range owned {
					if seen[g] {
						t.Fatalf("cell %d owned twice", g)
					}
					seen[g] = true
					if p.ShardOf[g] != int32(s) {
						t.Fatalf("ShardOf[%d]=%d, want %d", g, p.ShardOf[g], s)
					}
				}
			}
			for g, ok := range seen {
				if !ok {
					t.Fatalf("cell %d unowned", g)
				}
			}
			// Contiguity: shards are disjoint, increasing coordinate
			// intervals on the split axis.
			lastHi := int64(-1 << 62)
			for s := 0; s < p.NumShards; s++ {
				lo, hi := int64(1<<62), int64(-1<<62)
				for _, g := range p.Owned[s] {
					a := c.AbsCoord(int(g), p.Axis)
					lo = min(lo, a)
					hi = max(hi, a)
				}
				if lo <= lastHi {
					t.Fatalf("d=%d k=%d: shard %d interval [%d,%d] overlaps previous (hi %d)", d, k, s, lo, hi, lastHi)
				}
				lastHi = hi
			}
			// Halo: recompute from first principles.
			for s := 0; s < p.NumShards; s++ {
				wantHalo := map[int32]bool{}
				for _, g := range p.Owned[s] {
					for _, h := range c.Neighbors[g] {
						if p.ShardOf[h] != int32(s) {
							wantHalo[h] = true
						}
					}
				}
				if len(p.Halo[s]) != len(wantHalo) || !slices.IsSorted(p.Halo[s]) {
					t.Fatalf("d=%d k=%d shard %d: halo %v, want set of %d", d, k, s, p.Halo[s], len(wantHalo))
				}
				for _, h := range p.Halo[s] {
					if !wantHalo[h] {
						t.Fatalf("d=%d k=%d shard %d: %d in halo but not a cross-shard neighbor", d, k, s, h)
					}
				}
			}
		}
	}
}

// TestPartitionBalance: on a uniform point set, a point-balanced cut keeps
// every shard within a reasonable factor of the ideal share.
func TestPartitionBalance(t *testing.T) {
	c := partitionTestCells(t, 20000, 2, 9, 1.0)
	const k = 8
	p, err := MakePartition(nil, c, k)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards != k {
		t.Fatalf("NumShards=%d, want %d", p.NumShards, k)
	}
	ideal := 20000 / k
	for s := 0; s < k; s++ {
		pts := 0
		for _, g := range p.Owned[s] {
			pts += c.CellSize(int(g))
		}
		if pts < ideal/3 || pts > 3*ideal {
			t.Fatalf("shard %d has %d points (ideal %d)", s, pts, ideal)
		}
	}
}

// TestPartitionSkewNoEmptyShards: with all mass in one slab, the tail shards
// must still each receive at least one slab.
func TestPartitionSkewNoEmptyShards(t *testing.T) {
	var data []float64
	for i := 0; i < 500; i++ { // heavy slab near x=0
		data = append(data, rand.New(rand.NewSource(int64(i))).Float64()*0.5, float64(i%7))
	}
	for x := 1; x <= 6; x++ { // six light slabs
		data = append(data, float64(x)*10, 0)
	}
	pts := geom.Points{N: len(data) / 2, D: 2, Data: data}
	c := BuildGrid(nil, pts, 1.0)
	c.ComputeNeighborsEnum(nil)
	p, err := MakePartition(nil, c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards != 4 {
		t.Fatalf("NumShards=%d, want 4", p.NumShards)
	}
	for s, owned := range p.Owned {
		if len(owned) == 0 {
			t.Fatalf("shard %d starved empty under skew", s)
		}
	}
}

// TestPartitionAxisBySlabCount: the split axis is the one with the most
// occupied slabs, not the widest geometric span — two dense columns far
// apart on x offer only 2 slabs there, so cutting x would clamp any shard
// count to 2 while y has plenty of slabs to cut between.
func TestPartitionAxisBySlabCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var data []float64
	for i := 0; i < 400; i++ {
		x := 0.25
		if i%2 == 1 {
			x = 10000.25 // second column, enormous span, same slab
		}
		data = append(data, x, rng.Float64()*30)
	}
	pts := geom.Points{N: len(data) / 2, D: 2, Data: data}
	c := BuildGrid(nil, pts, 1.0)
	c.ComputeNeighborsEnum(nil)
	p, err := MakePartition(nil, c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Axis != 1 {
		t.Fatalf("split axis %d, want 1 (x spans wider but has 2 slabs)", p.Axis)
	}
	if p.NumShards != 8 {
		t.Fatalf("NumShards=%d, want 8 (y offers enough slabs)", p.NumShards)
	}
}

// TestPartitionClampAndErrors: shard counts beyond the occupied slabs clamp;
// box layout, missing neighbors, and non-positive counts error.
func TestPartitionClampAndErrors(t *testing.T) {
	c := partitionTestCells(t, 50, 2, 3, 5.0)
	p, err := MakePartition(nil, c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards >= 1000 || p.NumShards < 1 {
		t.Fatalf("NumShards=%d not clamped to occupied slabs", p.NumShards)
	}
	if _, err := MakePartition(nil, c, 0); err == nil {
		t.Fatal("shards=0 accepted")
	}
	noNbrs := BuildGrid(nil, c.Pts, 5.0)
	if _, err := MakePartition(nil, noNbrs, 2); err == nil {
		t.Fatal("cells without neighbor lists accepted")
	}
	box := BuildBox2D(nil, c.Pts, 5.0)
	box.ComputeNeighborsBox2D(nil)
	if _, err := MakePartition(nil, box, 2); err == nil {
		t.Fatal("box layout accepted")
	}
}
