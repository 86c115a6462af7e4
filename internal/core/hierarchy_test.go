package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/parallel"
	"pdbscan/internal/unionfind"
)

// bruteHierarchy is the O(n²) oracle of ComputeHierarchy: every point's core
// distance from all n squared distances, and the ascending weights of a
// minimum spanning forest of the mutual-reachability graph within eps, by
// Kruskal over every candidate pair. Any two minimum spanning forests share
// their sorted weights, so the weights are the oracle's whole answer.
func bruteHierarchy(pts geom.Points, eps float64, minPts int) (cd2, w2 []float64) {
	n := pts.N
	eps2 := eps * eps
	cd2 = make([]float64, n)
	d2s := make([]float64, n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			d2s[q] = geom.DistSq(pts.At(p), pts.At(q))
		}
		slices.Sort(d2s)
		cd2[p] = math.Inf(1)
		if minPts <= n && d2s[minPts-1] <= eps2 {
			cd2[p] = d2s[minPts-1]
		}
	}
	var edges []MREdge
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			d2 := geom.DistSq(pts.At(p), pts.At(q))
			if cd2[p] <= eps2 && cd2[q] <= eps2 && d2 <= eps2 {
				edges = append(edges, MREdge{W2: max(cd2[p], cd2[q], d2), A: int32(p), B: int32(q)})
			}
		}
	}
	slices.SortFunc(edges, func(x, y MREdge) int {
		if lessEdge(x, y) {
			return -1
		}
		return 1
	})
	uf := unionfind.New(n)
	for _, e := range edges {
		if uf.Find(e.A) != uf.Find(e.B) {
			uf.Union(e.A, e.B)
			w2 = append(w2, e.W2)
		}
	}
	return cd2, w2
}

// FuzzHierarchyMSF holds ComputeHierarchy to the brute-force oracle in
// d = 2, 3 and 5: the core distances are bit-identical, the forest's sorted
// weights are identical, the edges form a forest sorted by (W2, A, B), and
// every edge weighs exactly max(cd2(A), cd2(B), d2(A,B)) <= eps². The fuzz
// surface is the Borůvka edges phase under ties: lattices and duplicate
// points make many edges weigh the same, which is where a pruning rule that
// drops an equally light edge, or a round that closes a cycle, would show.
func FuzzHierarchyMSF(f *testing.F) {
	// 6x6 integer lattice at spacing 1.0, then its first row again as
	// duplicates: every core distance and most edge weights tie.
	var lattice []byte
	for i := 0; i < 42; i++ {
		var p [16]byte
		binary.LittleEndian.PutUint64(p[:8], uint64(i%6*100))
		binary.LittleEndian.PutUint64(p[8:], uint64(i%36/6*100))
		lattice = append(lattice, p[:]...)
	}
	f.Add(lattice, uint8(12), uint8(4), uint8(0), uint8(2))
	f.Add(lattice, uint8(12), uint8(0), uint8(1), uint8(1)) // minPts 1
	f.Add(lattice, uint8(20), uint8(3), uint8(2), uint8(3)) // d = 5 over the same bytes
	// All points identical: zero weights throughout.
	f.Add(bytes.Repeat([]byte{42, 0, 42, 0, 42, 0, 42, 0, 42, 0, 42, 0, 42, 0, 42, 0}, 20), uint8(4), uint8(3), uint8(1), uint8(2))
	// Scattered points at a small eps and minPts 6: all noise, no edges.
	f.Add(bytes.Repeat([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9, 9, 9, 77, 3, 200, 150, 6, 90, 13}, 8), uint8(0), uint8(5), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, epsQ, minPtsQ, dimQ, workersQ uint8) {
		if len(raw) > 64*16 {
			raw = raw[:64*16]
		}
		dims := []int{2, 3, 5}
		d := dims[int(dimQ)%len(dims)]
		n := len(raw) / (8 * d)
		if n < 1 {
			return
		}
		data := make([]float64, n*d)
		for i := range data {
			data[i] = float64(binary.LittleEndian.Uint64(raw[i*8:])%10000) / 100
		}
		pts := geom.Points{N: n, D: d, Data: data}
		eps := 0.1 + float64(epsQ)/8
		minPts := 1 + int(minPtsQ)%6
		workers := 1 + int(workersQ)%3

		hd, err := ComputeHierarchy(buildGridCells(pts, eps), Params{MinPts: minPts, Exec: parallel.NewPool(workers)})
		if err != nil {
			t.Fatal(err)
		}
		cd2, w2 := bruteHierarchy(pts, eps, minPts)
		for i := range cd2 {
			if math.Float64bits(hd.CoreDist2[i]) != math.Float64bits(cd2[i]) {
				t.Fatalf("d=%d n=%d eps=%v minPts=%d: cd2[%d] = %v, oracle %v", d, n, eps, minPts, i, hd.CoreDist2[i], cd2[i])
			}
		}
		if len(hd.Edges) != len(w2) {
			t.Fatalf("d=%d n=%d eps=%v minPts=%d: %d forest edges, oracle %d", d, n, eps, minPts, len(hd.Edges), len(w2))
		}
		eps2 := eps * eps
		uf := unionfind.New(n)
		for i, e := range hd.Edges {
			if math.Float64bits(e.W2) != math.Float64bits(w2[i]) {
				t.Fatalf("d=%d n=%d eps=%v minPts=%d: sorted weight %d = %v, oracle %v", d, n, eps, minPts, i, e.W2, w2[i])
			}
			if i > 0 && !lessEdge(hd.Edges[i-1], e) {
				t.Fatalf("edges %d and %d out of (W2, A, B) order: %+v, %+v", i-1, i, hd.Edges[i-1], e)
			}
			if !(e.A < e.B) || e.B >= int32(n) {
				t.Fatalf("edge %d has bad endpoints: %+v", i, e)
			}
			if want := max(cd2[e.A], cd2[e.B], geom.DistSq(pts.At(int(e.A)), pts.At(int(e.B)))); e.W2 != want || e.W2 > eps2 {
				t.Fatalf("edge %d = %+v: weight should be %v within eps² %v", i, e, want, eps2)
			}
			if uf.Find(e.A) == uf.Find(e.B) {
				t.Fatalf("edge %d = %+v closes a cycle", i, e)
			}
			uf.Union(e.A, e.B)
		}
	})
}
