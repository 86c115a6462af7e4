package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/metrics"
)

// clusteredPoints generates a mix of Gaussian-ish blobs plus uniform noise —
// the regime DBSCAN is designed for — in d dimensions.
func clusteredPoints(n, d int, scale float64, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	nClusters := 3 + rng.Intn(4)
	centers := make([][]float64, nClusters)
	for i := range centers {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.Float64() * scale
		}
		centers[i] = c
	}
	data := make([]float64, n*d)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			for j := 0; j < d; j++ {
				data[i*d+j] = rng.Float64() * scale
			}
			continue
		}
		c := centers[rng.Intn(nClusters)]
		for j := 0; j < d; j++ {
			data[i*d+j] = c[j] + rng.NormFloat64()*scale/40
		}
	}
	return geom.Points{N: n, D: d, Data: data}
}

// buildGridCells builds grid cells with the right neighbor method for d.
func buildGridCells(pts geom.Points, eps float64) *grid.Cells {
	c := grid.BuildGrid(nil, pts, eps)
	c.ComputeNeighbors(nil)
	return c
}

func runAndCheck(t *testing.T, pts geom.Points, cells *grid.Cells, p Params, eps float64, name string) {
	t.Helper()
	res, err := Run(cells, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := metrics.BruteDBSCAN(pts, eps, p.MinPts)
	if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestExactVariants2DMatchBruteForce(t *testing.T) {
	graphs := []struct {
		name string
		g    GraphStrategy
	}{
		{"bcp", GraphBCP},
		{"quadtree", GraphQuadtree},
		{"usec", GraphUSEC},
		{"delaunay", GraphDelaunay},
	}
	marks := []struct {
		name string
		m    MarkStrategy
	}{
		{"scan", MarkScan},
		{"qt", MarkQuadtree},
	}
	for seed := int64(1); seed <= 4; seed++ {
		pts := clusteredPoints(400, 2, 100, seed)
		eps := 3.0
		minPts := 5
		gridCells := buildGridCells(pts, eps)
		boxCells := grid.BuildBox2D(nil, pts, eps)
		boxCells.ComputeNeighborsBox2D(nil)
		for _, gs := range graphs {
			for _, ms := range marks {
				p := Params{MinPts: minPts, Mark: ms.m, Graph: gs.g}
				runAndCheck(t, pts, gridCells, p, eps,
					fmt.Sprintf("seed%d-grid-%s-%s", seed, gs.name, ms.name))
				runAndCheck(t, pts, boxCells, p, eps,
					fmt.Sprintf("seed%d-box-%s-%s", seed, gs.name, ms.name))
			}
		}
	}
}

func TestExactHighDimMatchBruteForce(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		for seed := int64(1); seed <= 2; seed++ {
			pts := clusteredPoints(300, d, 60, seed*10+int64(d))
			eps := 8.0
			minPts := 8
			cells := buildGridCells(pts, eps)
			for _, g := range []GraphStrategy{GraphBCP, GraphQuadtree} {
				for _, m := range []MarkStrategy{MarkScan, MarkQuadtree} {
					p := Params{MinPts: minPts, Mark: m, Graph: g}
					runAndCheck(t, pts, cells, p, eps,
						fmt.Sprintf("d%d-seed%d-g%d-m%d", d, seed, g, m))
				}
			}
		}
	}
}

func TestBucketingSameResult(t *testing.T) {
	pts := clusteredPoints(600, 3, 80, 42)
	eps := 6.0
	cells := buildGridCells(pts, eps)
	base, err := Run(cells, Params{MinPts: 10, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	for _, buckets := range []int{1, 4, 64} {
		res, err := Run(cells, Params{MinPts: 10, Graph: GraphBCP, Bucketing: true, Buckets: buckets})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters != base.NumClusters {
			t.Fatalf("buckets=%d: %d clusters, want %d", buckets, res.NumClusters, base.NumClusters)
		}
		if ari := metrics.AdjustedRandIndex(res.Labels, base.Labels); ari != 1 {
			t.Fatalf("buckets=%d: ARI = %v, want 1", buckets, ari)
		}
	}
}

func TestApproxValidity(t *testing.T) {
	for _, rho := range []float64{0.001, 0.01, 0.1, 1.0} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, d := range []int{2, 3, 5} {
				pts := clusteredPoints(300, d, 60, seed*100+int64(d))
				eps := 6.0
				minPts := 6
				cells := buildGridCells(pts, eps)
				for _, m := range []MarkStrategy{MarkScan, MarkQuadtree} {
					p := Params{MinPts: minPts, Rho: rho, Mark: m, Graph: GraphApprox}
					res, err := Run(cells, p)
					if err != nil {
						t.Fatal(err)
					}
					if err := metrics.ValidApproxResult(pts, eps, rho, minPts,
						res.Core, res.Labels, res.Border); err != nil {
						t.Fatalf("rho=%v seed=%d d=%d mark=%d: %v", rho, seed, d, m, err)
					}
				}
			}
		}
	}
}

func TestApproxTinyRhoMatchesExact(t *testing.T) {
	// With clustered data and tiny rho, the approximate answer almost
	// surely coincides with the exact one (no pair falls in (eps, eps(1+rho)]).
	pts := clusteredPoints(400, 3, 80, 7)
	eps := 6.0
	cells := buildGridCells(pts, eps)
	exact, err := Run(cells, Params{MinPts: 8, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Run(cells, Params{MinPts: 8, Rho: 1e-9, Graph: GraphApprox})
	if err != nil {
		t.Fatal(err)
	}
	if ari := metrics.AdjustedRandIndex(exact.Labels, approx.Labels); ari != 1 {
		t.Fatalf("ARI = %v, want 1", ari)
	}
}

func TestMinPtsOne(t *testing.T) {
	// minPts=1: every point is core (it counts itself); every point is in a
	// cluster.
	pts := clusteredPoints(200, 2, 50, 3)
	cells := buildGridCells(pts, 2.0)
	res, err := Run(cells, Params{MinPts: 1, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Core {
		if !c {
			t.Fatalf("point %d not core with minPts=1", i)
		}
		if res.Labels[i] < 0 {
			t.Fatalf("point %d unlabeled with minPts=1", i)
		}
	}
	ref := metrics.BruteDBSCAN(pts, 2.0, 1)
	if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
		t.Fatal(err)
	}
}

func TestAllNoise(t *testing.T) {
	// Huge minPts: nothing is core.
	pts := clusteredPoints(150, 2, 50, 4)
	cells := buildGridCells(pts, 1.0)
	res, err := Run(cells, Params{MinPts: 1000, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Fatalf("clusters = %d, want 0", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != -1 {
			t.Fatalf("point %d labeled %d, want -1", i, l)
		}
	}
}

func TestOneBigCluster(t *testing.T) {
	// Very large eps: one cluster containing everything (TeraClickLog-style
	// degenerate regime: all points in one cell).
	pts := clusteredPoints(500, 3, 10, 5)
	cells := buildGridCells(pts, 1e6)
	// Cells are anchored to the absolute side-grid lattice, so a tiny point
	// set straddling a lattice boundary may occupy up to 2^d cells (here the
	// Gaussian noise dips below 0); it can never occupy more.
	if n := cells.NumCells(); n < 1 || n > 8 {
		t.Fatalf("cells = %d, want 1..8", n)
	}
	res, err := Run(cells, Params{MinPts: 5, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters)
	}
}

func TestSinglePoint(t *testing.T) {
	pts, _ := geom.FromRows([][]float64{{1, 2}})
	cells := buildGridCells(pts, 1.0)
	res, err := Run(cells, Params{MinPts: 2, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || res.Labels[0] != -1 {
		t.Fatal("single point should be noise with minPts=2")
	}
	res, err = Run(cells, Params{MinPts: 1, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 || res.Labels[0] != 0 {
		t.Fatal("single point should be its own cluster with minPts=1")
	}
}

func TestInvalidParams(t *testing.T) {
	pts := clusteredPoints(50, 2, 10, 6)
	cells := buildGridCells(pts, 1.0)
	if _, err := Run(cells, Params{MinPts: 0, Graph: GraphBCP}); err == nil {
		t.Fatal("expected error for MinPts=0")
	}
	if _, err := Run(cells, Params{MinPts: 5, Graph: GraphApprox}); err == nil {
		t.Fatal("expected error for GraphApprox without Rho")
	}
	noNbrs := grid.BuildGrid(nil, pts, 1.0)
	if _, err := Run(noNbrs, Params{MinPts: 5, Graph: GraphBCP}); err == nil {
		t.Fatal("expected error for missing neighbors")
	}
	noPayload := *cells
	noPayload.Payload = nil
	if _, err := Run(&noPayload, Params{MinPts: 5, Graph: GraphBCP}); err == nil {
		t.Fatal("expected error for cells without a payload")
	}
	pts3 := clusteredPoints(50, 3, 10, 6)
	cells3 := buildGridCells(pts3, 1.0)
	if _, err := Run(cells3, Params{MinPts: 5, Graph: GraphUSEC}); err == nil {
		t.Fatal("expected error for USEC in 3D")
	}
}

func TestBorderMultiMembership(t *testing.T) {
	// Two vertical clusters of 15 points at x=0 and x=10, and one point at
	// (5, 0). With eps=5.01 the middle point reaches only the 4 lowest
	// points of each side (9 neighbors incl. itself < minPts=12), so it is
	// a border point of both clusters; each cluster's own points see all 15
	// clustermates, so they are core.
	rows := [][]float64{}
	for i := 0; i < 15; i++ {
		rows = append(rows, []float64{0, float64(i) * 0.1})
		rows = append(rows, []float64{10, float64(i) * 0.1})
	}
	rows = append(rows, []float64{5, 0}) // border point
	pts, _ := geom.FromRows(rows)
	eps := 5.01
	minPts := 12
	cells := buildGridCells(pts, eps)
	res, err := Run(cells, Params{MinPts: minPts, Graph: GraphBCP})
	if err != nil {
		t.Fatal(err)
	}
	ref := metrics.BruteDBSCAN(pts, eps, minPts)
	if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	b := int32(len(rows) - 1)
	if m, ok := res.Border[b]; !ok || len(m) != 2 {
		t.Fatalf("border point memberships = %v, want 2 clusters", res.Border[b])
	}
	if res.Core[b] {
		t.Fatal("border point marked core")
	}
}

func TestDuplicatePointsClustered(t *testing.T) {
	// Many exact duplicates: all within distance 0, forming one dense blob.
	rows := [][]float64{}
	for i := 0; i < 50; i++ {
		rows = append(rows, []float64{1, 1})
	}
	for i := 0; i < 50; i++ {
		rows = append(rows, []float64{100, 100})
	}
	pts, _ := geom.FromRows(rows)
	cells := buildGridCells(pts, 1.0)
	for _, g := range []GraphStrategy{GraphBCP, GraphQuadtree, GraphUSEC, GraphDelaunay} {
		res, err := Run(cells, Params{MinPts: 10, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters != 2 {
			t.Fatalf("graph %d: clusters = %d, want 2", g, res.NumClusters)
		}
	}
}

func TestUSECAcrossManyConfigs(t *testing.T) {
	// Dedicated stress for the USEC path: varied eps so cells take many
	// relative positions (vertical, horizontal, diagonal separations).
	for _, eps := range []float64{1.5, 3, 7, 15} {
		for seed := int64(20); seed < 23; seed++ {
			pts := clusteredPoints(300, 2, 60, seed)
			cells := buildGridCells(pts, eps)
			p := Params{MinPts: 5, Graph: GraphUSEC}
			runAndCheck(t, pts, cells, p, eps, fmt.Sprintf("usec-eps%v-seed%d", eps, seed))
		}
	}
}
