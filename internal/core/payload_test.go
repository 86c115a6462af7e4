package core

import (
	"math"
	"reflect"
	"testing"

	"pdbscan/internal/grid"
)

// poisoned returns a shallow copy of cells whose original point store is all
// NaN. The payload was gathered before the poisoning, so a pipeline that
// reads coordinates only from the payload cannot tell the copy apart; a read
// that bypasses it sees NaN distances, which compare false against every
// radius and change the result.
func poisoned(cells *grid.Cells) *grid.Cells {
	cp := *cells
	nan := make([]float64, len(cells.Pts.Data))
	for i := range nan {
		nan[i] = math.NaN()
	}
	cp.Pts.Data = nan
	return &cp
}

// TestPayloadOnlyReads is the structural guard of the one point layout:
// every clustering run, every hierarchy build and every incremental tick
// over a Dynamic snapshot must give bit-identical output on cells whose
// original point store is poisoned. GraphDelaunay is the one exception — it
// triangulates the original store by design.
func TestPayloadOnlyReads(t *testing.T) {
	t.Run("batch", testPayloadOnlyBatch)
	t.Run("incremental", testPayloadOnlyIncremental)
}

// testPayloadOnlyBatch covers Run for every non-Delaunay method and
// ComputeHierarchy, in d = 2, 3 and 5.
func testPayloadOnlyBatch(t *testing.T) {
	type method struct {
		name string
		box  bool
		p    Params
	}
	for _, d := range []int{2, 3, 5} {
		pts := clusteredPoints(3000, d, 100, int64(40+d))
		eps := 4.0
		methods := []method{
			{name: "bcp", p: Params{MinPts: 8, Graph: GraphBCP}},
			{name: "bcp-bucketing", p: Params{MinPts: 8, Graph: GraphBCP, Bucketing: true}},
			{name: "qt", p: Params{MinPts: 8, Mark: MarkQuadtree, Graph: GraphQuadtree}},
			{name: "approx", p: Params{MinPts: 8, Graph: GraphApprox, Rho: 0.01}},
			{name: "sampled", p: Params{MinPts: 8, Graph: GraphBCP, Sample: UniformMask(nil, pts.N, 0.3, 7)}},
		}
		if d == 2 {
			methods = append(methods,
				method{name: "usec", p: Params{MinPts: 8, Graph: GraphUSEC}},
				method{name: "box-bcp", box: true, p: Params{MinPts: 8, Graph: GraphBCP}},
			)
		}
		gridCells := buildGridCells(pts, eps)
		for _, m := range methods {
			cells := gridCells
			if m.box {
				cells = grid.BuildBox2D(nil, pts, eps)
				cells.ComputeNeighborsBox2D(nil)
			}
			want, err := Run(cells, m.p)
			if err != nil {
				t.Fatalf("d=%d %s: %v", d, m.name, err)
			}
			got, err := Run(poisoned(cells), m.p)
			if err != nil {
				t.Fatalf("d=%d %s poisoned: %v", d, m.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("d=%d %s: run over poisoned Pts differs", d, m.name)
			}
		}

		want, err := ComputeHierarchy(gridCells, Params{MinPts: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeHierarchy(poisoned(gridCells), Params{MinPts: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("d=%d: hierarchy over poisoned Pts differs", d)
		}
	}
}

// testPayloadOnlyIncremental runs a full tick, then a mutated tick whose
// clean cells reuse the cached flags and edges, each on a Dynamic snapshot
// and on its poisoned copy with separate caches.
func testPayloadOnlyIncremental(t *testing.T) {
	pts := clusteredPoints(3000, 2, 100, 17)
	for _, p := range []Params{
		{MinPts: 8, Graph: GraphBCP},
		{MinPts: 8, Mark: MarkQuadtree, Graph: GraphQuadtree},
		{MinPts: 8, Graph: GraphApprox, Rho: 0.01},
	} {
		dyn := grid.NewDynamic(2, 4.0)
		for i := 0; i < pts.N; i++ {
			dyn.Insert(pts.At(i))
		}
		incWant, incGot := NewIncremental(), NewIncremental()
		for tick := 0; tick < 2; tick++ {
			if tick == 1 {
				for s := int32(0); s < 300; s += 3 {
					dyn.Remove(s)
				}
				for i := 0; i < 100; i++ {
					dyn.Insert(pts.At(pts.N - 1 - i))
				}
			}
			cells, dirty, err := dyn.Snapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunIncremental(cells, p, incWant, dirty)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunIncremental(poisoned(cells), p, incGot, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("graph %d tick %d: incremental run over poisoned Pts differs", p.Graph, tick)
			}
		}
	}
}
