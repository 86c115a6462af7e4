package pdbscan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"pdbscan/internal/core"
	"pdbscan/internal/unionfind"
)

// hierarchyEpsGrid is the ascending query grid the property tests sweep.
func hierarchyEpsGrid(eps float64, n int) []float64 {
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = eps * float64(i+1) / float64(n)
	}
	return qs
}

// TestHierarchyMonotonicity pins the dendrogram's defining metamorphic
// properties over an ascending eps sweep: core flags only switch on, the
// noise set only shrinks, and clusters only merge — two core points sharing
// a cluster at a smaller radius share one at every larger radius.
func TestHierarchyMonotonicity(t *testing.T) {
	for _, d := range []int{2, 3} {
		rows := blobs(1500, d, 7)
		c, err := NewClusterer(rows, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.BuildHierarchy(5)
		if err != nil {
			t.Fatal(err)
		}
		var prev *Result
		for _, q := range hierarchyEpsGrid(3.0, 12) {
			res, err := h.CutEps(q)
			if err != nil {
				t.Fatalf("d=%d CutEps(%v): %v", d, q, err)
			}
			if prev != nil {
				// label map: prev cluster -> cluster at the larger radius.
				merge := make([]int32, prev.NumClusters)
				for i := range merge {
					merge[i] = -1
				}
				for i := range rows {
					if prev.Core[i] && !res.Core[i] {
						t.Fatalf("d=%d eps=%v: point %d lost its core flag as eps grew", d, q, i)
					}
					if prev.Labels[i] >= 0 && res.Labels[i] < 0 {
						t.Fatalf("d=%d eps=%v: point %d became noise as eps grew", d, q, i)
					}
					if !prev.Core[i] {
						continue
					}
					pl, nl := prev.Labels[i], res.Labels[i]
					if merge[pl] == -1 {
						merge[pl] = nl
					} else if merge[pl] != nl {
						t.Fatalf("d=%d eps=%v: cluster %d split (core members in %d and %d)", d, q, pl, merge[pl], nl)
					}
				}
			}
			prev = res
		}
	}
}

// TestHierarchyCutDeterminism: the same query must return bit-identical
// results no matter the query order (ascending advances the shared replay,
// descending forces resets) or concurrency. Core labels are assigned in
// ascending point order off min-index union-find roots, so even strict
// label equality must hold, not just permutation equivalence.
func TestHierarchyCutDeterminism(t *testing.T) {
	rows := blobs(2000, 2, 13)
	c, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	grid := hierarchyEpsGrid(3.0, 8)
	want := make([]*Result, len(grid))
	for i, q := range grid {
		if want[i], err = h.CutEps(q); err != nil {
			t.Fatal(err)
		}
	}
	// Descending then ascending again: every answer must repeat exactly.
	for pass := 0; pass < 2; pass++ {
		for i := len(grid) - 1; i >= 0; i-- {
			res, err := h.CutEps(grid[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := labelsEqual(res, want[i]); err != nil {
				t.Fatalf("pass %d eps=%v: %v", pass, grid[i], err)
			}
		}
	}
	// Concurrent queries in shuffled order on the one shared Hierarchy (the
	// -race run makes this the replay-locking test).
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, i := range rng.Perm(len(grid)) {
				res, err := h.CutEps(grid[i])
				if err != nil {
					errs <- err
					return
				}
				if err := labelsEqual(res, want[i]); err != nil {
					errs <- fmt.Errorf("concurrent eps=%v: %v", grid[i], err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// tieLattice3D is a dense, tie-heavy 3D input: the 9x9x9 integer lattice
// plus a duplicate of every fifth lattice point, so core distances and
// edge weights tie across most of the point set.
func tieLattice3D() [][]float64 {
	var rows [][]float64
	for i := 0; i < 9*9*9; i++ {
		p := []float64{float64(i % 9), float64(i / 9 % 9), float64(i / 81)}
		rows = append(rows, p)
		if i%5 == 0 {
			rows = append(rows, []float64{p[0], p[1], p[2]})
		}
	}
	return rows
}

// TestHierarchyBuildDeterminism: the structure itself (core distances and
// the forest edge list, endpoints included) is identical regardless of the
// worker budget. The tie-heavy lattice is the hard case: a component's
// best-so-far edge prunes other searches in whatever order the workers run,
// and with weights tied everywhere, any leak of that order into a choice
// would change endpoints. It must take at least three Borůvka rounds, so
// that later rounds run over merged components.
func TestHierarchyBuildDeterminism(t *testing.T) {
	for _, in := range []struct {
		name   string
		rows   [][]float64
		eps    float64
		minPts int
	}{
		{"blobs", blobs(1200, 3, 29), 3.0, 5},
		{"tie-lattice", tieLattice3D(), 2.5, 10},
	} {
		var ref *Hierarchy
		for _, workers := range []int{1, 2, 7} {
			c, err := NewClusterer(in.rows, in.eps)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.BuildHierarchyContext(context.Background(), Config{MinPts: in.minPts, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if r := h.BuildStats().Rounds; in.name == "tie-lattice" && r < 3 {
				t.Fatalf("%s workers=%d: %d Borůvka rounds, want at least 3", in.name, workers, r)
			}
			if ref == nil {
				ref = h
				continue
			}
			for i, v := range h.cd2 {
				if v != ref.cd2[i] && !(math.IsInf(v, 1) && math.IsInf(ref.cd2[i], 1)) {
					t.Fatalf("%s workers=%d: cd2[%d] = %v vs %v", in.name, workers, i, v, ref.cd2[i])
				}
			}
			if len(h.edges) != len(ref.edges) {
				t.Fatalf("%s workers=%d: %d edges vs %d", in.name, workers, len(h.edges), len(ref.edges))
			}
			for i, e := range h.edges {
				if e != ref.edges[i] {
					t.Fatalf("%s workers=%d: edge %d = %+v vs %+v", in.name, workers, i, e, ref.edges[i])
				}
			}
		}
	}
}

// TestHierarchyWorkCounters: a build reports its Borůvka rounds and
// distance evaluations. Each round at least halves the components that
// still have an edge, and the last round finds none, so 1 <= Rounds <=
// ⌈log2 m⌉ + 1 for m core-capable points.
func TestHierarchyWorkCounters(t *testing.T) {
	for _, in := range []struct {
		name   string
		rows   [][]float64
		eps    float64
		minPts int
	}{
		{"blobs-2d", blobs(2000, 2, 5), 3.0, 5},
		{"blobs-3d", blobs(1500, 3, 6), 4.0, 10},
		{"tie-lattice", tieLattice3D(), 2.5, 10},
		{"minpts-1", blobs(800, 2, 7), 2.0, 1},
	} {
		c, err := NewClusterer(in.rows, in.eps)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.BuildHierarchy(in.minPts)
		if err != nil {
			t.Fatal(err)
		}
		st := h.BuildStats()
		m := 0
		for _, v := range h.cd2 {
			if v <= h.eps2 {
				m++
			}
		}
		if m < 2 || st.NumEdges == 0 {
			t.Fatalf("%s: %d core-capable points and %d edges; the input should have both", in.name, m, st.NumEdges)
		}
		if limit := int(math.Ceil(math.Log2(float64(m)))) + 1; st.Rounds < 1 || st.Rounds > limit {
			t.Fatalf("%s: %d rounds for %d core-capable points, want 1..%d", in.name, st.Rounds, m, limit)
		}
		if st.DistEvals < int64(st.NumEdges) {
			t.Fatalf("%s: %d distance evaluations for %d edges", in.name, st.DistEvals, st.NumEdges)
		}
	}
}

// TestHierarchyCache: one build per MinPts — repeated and concurrent
// BuildHierarchy calls return the same *Hierarchy; distinct MinPts get
// distinct hierarchies.
func TestHierarchyCache(t *testing.T) {
	rows := blobs(600, 2, 3)
	c, err := NewClusterer(rows, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("second BuildHierarchy at the same MinPts rebuilt instead of reusing")
	}
	h3, err := c.BuildHierarchy(8)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct MinPts shared a hierarchy")
	}
	var wg sync.WaitGroup
	got := make([]*Hierarchy, 6)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.BuildHierarchy(12)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("concurrent builds diverged: %p vs %p", got[i], got[0])
		}
	}
}

// TestHierarchyBuildCancellation cancels a build from inside every pipeline
// phase via the PhaseHook seam and checks the lazyCells discipline: the
// cancelled build returns ctx.Err(), latches nothing, and the next build
// runs clean and answers queries exactly like batch Cluster.
func TestHierarchyBuildCancellation(t *testing.T) {
	rows := blobs(900, 2, 41)
	for _, phase := range []string{"coredist", "edges", "mst", "done"} {
		c, err := NewClusterer(rows, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		c.phaseHook = func(p string) {
			if p == phase {
				cancel()
			}
		}
		_, err = c.BuildHierarchyContext(ctx, Config{MinPts: 5})
		if err != context.Canceled {
			t.Fatalf("phase %s: err = %v, want context.Canceled", phase, err)
		}
		c.hierMu.Lock()
		lh := c.hiers[5]
		if lh == nil || lh.h != nil || lh.building != nil {
			t.Fatalf("phase %s: cancelled build latched state: %+v", phase, lh)
		}
		c.hierMu.Unlock()
		// The rebuild must start from scratch and produce the exact answer.
		c.phaseHook = nil
		h, err := c.BuildHierarchy(5)
		if err != nil {
			t.Fatalf("phase %s: rebuild: %v", phase, err)
		}
		cut, err := h.CutEps(1.25)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Cluster(rows, Config{Eps: 1.25, MinPts: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := equivalentResults(cut, batch); err != nil {
			t.Fatalf("phase %s: rebuild after cancellation: %v", phase, err)
		}
	}
	// Pre-cancelled context: rejected before any build state exists.
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.BuildHierarchyContext(ctx, Config{MinPts: 5}); err != context.Canceled {
		t.Fatalf("pre-cancelled build: err = %v", err)
	}
	if c.hiers != nil && c.hiers[5] != nil && (c.hiers[5].h != nil || c.hiers[5].building != nil) {
		t.Fatal("pre-cancelled build left state behind")
	}
}

// TestHierarchyCutCancellation: a cut on a cancelled context returns the
// context's error and no result, and the hierarchy stays usable.
func TestHierarchyCutCancellation(t *testing.T) {
	rows := blobs(800, 2, 19)
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := h.CutEpsContext(ctx, 1.0, 0); err != context.Canceled || res != nil {
		t.Fatalf("cancelled cut: res=%v err=%v", res, err)
	}
	if _, _, err := h.CutKContext(ctx, 2, 0); err != context.Canceled {
		t.Fatalf("cancelled CutK: err=%v", err)
	}
	res, err := h.CutEps(1.0)
	if err != nil || res == nil {
		t.Fatalf("cut after a cancelled cut: %v", err)
	}
}

// TestHierarchyCutK: for every cluster count the eps sweep actually
// realizes, CutK must find a radius realizing it — and its result must be
// the CutEps answer at that radius with exactly k clusters. Unrealizable
// counts are errors.
func TestHierarchyCutK(t *testing.T) {
	rows := blobs(900, 2, 23)
	c, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, q := range hierarchyEpsGrid(3.0, 24) {
		res, err := h.CutEps(q)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.NumClusters] = true
	}
	for k := range seen {
		if k == 0 {
			continue
		}
		res, eps, err := h.CutK(k)
		if err != nil {
			t.Fatalf("CutK(%d): %v (count seen in the sweep)", k, err)
		}
		if res.NumClusters != k {
			t.Fatalf("CutK(%d) returned %d clusters", k, res.NumClusters)
		}
		if !(eps > 0 && eps <= 3.0) {
			t.Fatalf("CutK(%d) eps = %v out of (0, 3]", k, eps)
		}
		ref, err := h.CutEps(eps)
		if err != nil {
			t.Fatal(err)
		}
		// eps is the sqrt of the internal threshold; requerying at it must
		// reproduce the same clustering whenever the rounding keeps the
		// count (it does on this layout).
		if err := labelsEqual(res, ref); err != nil {
			t.Fatalf("CutK(%d) vs CutEps(%v): %v", k, eps, err)
		}
	}
	if _, _, err := h.CutK(len(rows) + 1); err == nil {
		t.Fatal("CutK beyond the point count succeeded")
	}
	if _, _, err := h.CutK(0); err == nil {
		t.Fatal("CutK(0) succeeded")
	}
}

// TestHierarchyExtractStable: on well-separated blobs the most stable
// antichain is the blobs themselves, regardless of the (much larger) build
// radius; repeated extraction is deterministic, and extraction runs safely
// concurrently with cuts.
func TestHierarchyExtractStable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var rows [][]float64
	truth := make([]int, 0, 460)
	for b := 0; b < 3; b++ {
		for i := 0; i < 150; i++ {
			rows = append(rows, []float64{
				float64(b)*40 + rng.NormFloat64(),
				rng.NormFloat64(),
			})
			truth = append(truth, b)
		}
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{rng.Float64() * 120, 25 + rng.Float64()*10})
		truth = append(truth, -1)
	}
	c, err := NewClusterer(rows, 60)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := h.ExtractStable(0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumClusters != 3 {
		t.Fatalf("stable clusters = %d, want 3 (clusters: %+v)", sr.NumClusters, sr.Clusters)
	}
	// Each blob maps to one stable cluster, near-completely.
	blobLbl := map[int]int32{}
	agree := 0
	for i, b := range truth {
		if b < 0 {
			continue
		}
		if l, ok := blobLbl[b]; !ok {
			blobLbl[b] = sr.Labels[i]
		} else if l == sr.Labels[i] {
			agree++
		}
	}
	if agree < 400 {
		t.Fatalf("blob/label agreement %d/447", agree)
	}
	sizes := 0
	for _, cl := range sr.Clusters {
		if cl.Stability <= 0 {
			t.Fatalf("non-positive stability: %+v", cl)
		}
		if !(cl.MaxEps > 0 && cl.MaxEps <= 60) {
			t.Fatalf("MaxEps out of range: %+v", cl)
		}
		sizes += cl.Size
	}
	counted := 0
	for _, l := range sr.Labels {
		if l >= 0 {
			counted++
		}
	}
	if sizes != counted {
		t.Fatalf("cluster sizes sum %d but %d labeled points", sizes, counted)
	}
	// Deterministic, and safe alongside concurrent cuts.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				h.CutEps(10)
			} else {
				sr2, err := h.ExtractStable(0)
				if err != nil || sr2.NumClusters != sr.NumClusters {
					t.Errorf("concurrent ExtractStable: %v / %d clusters", err, sr2.NumClusters)
					return
				}
				for i := range sr.Labels {
					if sr.Labels[i] != sr2.Labels[i] {
						t.Errorf("ExtractStable not deterministic at %d", i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := h.ExtractStable(1); err == nil {
		t.Fatal("ExtractStable(1) succeeded")
	}
	// A threshold above every blob leaves only noise.
	srBig, err := h.ExtractStable(200)
	if err != nil {
		t.Fatal(err)
	}
	if srBig.NumClusters != 1 {
		// All three blobs are under 200 points, so only the root component
		// (everything merged below eps=60) can qualify.
		t.Fatalf("minClusterSize=200: %d clusters", srBig.NumClusters)
	}
}

// TestExtractStableMSFInvariant: ExtractStable answers for the graph, not
// for the forest it happens to hold. The input is tie-heavy: two 10x10
// integer lattices three units apart, with duplicates of some interior
// points, and a pair of points midway between them. The pair joins both
// lattices at one weight, in edges that tie; a forest that lists the left
// lattice's tied edges first nests the pair under it, one that lists the
// right lattice's first nests it under that one. Two minimum spanning
// forests from brute-force Kruskal — ties broken by ascending and by
// descending (A, B) — must still give label-permutation-equal extractions
// with the same multiset of stabilities, and so must the built forest.
func TestExtractStableMSFInvariant(t *testing.T) {
	var rows [][]float64
	for _, x0 := range []float64{0, 12} {
		for i := 0; i < 100; i++ {
			x, y := x0+float64(i%10), float64(i/10)
			rows = append(rows, []float64{x, y})
			if i%7 == 0 && (x <= 6 || x >= 15) {
				rows = append(rows, []float64{x, y})
			}
		}
	}
	rows = append(rows, []float64{10.5, 4}, []float64{10.5, 5})
	const eps, minPts = 2.0, 6
	c, err := NewClusterer(rows, eps)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(minPts)
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate edge, then Kruskal under each tie-break.
	var cand []core.MREdge
	for a := range rows {
		for b := a + 1; b < len(rows); b++ {
			d2 := 0.0
			for j := range rows[a] {
				dd := rows[a][j] - rows[b][j]
				d2 += dd * dd
			}
			if w := max(h.cd2[a], h.cd2[b], d2); w <= h.eps2 {
				cand = append(cand, core.MREdge{W2: w, A: int32(a), B: int32(b)})
			}
		}
	}
	kruskal := func(desc bool) []core.MREdge {
		es := slices.Clone(cand)
		sort.Slice(es, func(i, j int) bool {
			x, y := es[i], es[j]
			if x.W2 != y.W2 {
				return x.W2 < y.W2
			}
			if x.A != y.A {
				return (x.A < y.A) != desc
			}
			return (x.B < y.B) != desc
		})
		uf := unionfind.New(len(rows))
		var out []core.MREdge
		for _, e := range es {
			if uf.Find(e.A) != uf.Find(e.B) {
				uf.Union(e.A, e.B)
				out = append(out, e)
			}
		}
		return out
	}
	asc, desc := kruskal(false), kruskal(true)
	if slices.Equal(asc, desc) {
		t.Fatal("the two forests are identical; the input has too few ties to test anything")
	}
	extract := func(edges []core.MREdge) *StableResult {
		hf := &Hierarchy{minPts: h.minPts, eps: h.eps, eps2: h.eps2, cd2: h.cd2, edges: edges}
		sr, err := hf.ExtractStable(0)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	for _, w := range []struct {
		name  string
		edges []core.MREdge
	}{{"descending", desc}, {"built", h.edges}} {
		for i := range asc {
			if asc[i].W2 != w.edges[i].W2 {
				t.Fatalf("%s forest: sorted weight %d = %v vs %v", w.name, i, w.edges[i].W2, asc[i].W2)
			}
		}
		a, b := extract(asc), extract(w.edges)
		if a.NumClusters < 2 {
			t.Fatalf("%d stable clusters; the input should have several", a.NumClusters)
		}
		if a.NumClusters != b.NumClusters {
			t.Fatalf("%s forest: %d stable clusters vs %d", w.name, b.NumClusters, a.NumClusters)
		}
		perm := make([]int32, a.NumClusters)
		for i := range perm {
			perm[i] = -1
		}
		for i, la := range a.Labels {
			lb := b.Labels[i]
			if (la < 0) != (lb < 0) {
				t.Fatalf("%s forest: point %d labeled %d vs %d", w.name, i, lb, la)
			}
			if la < 0 {
				continue
			}
			if perm[la] == -1 {
				perm[la] = lb
			} else if perm[la] != lb {
				t.Fatalf("%s forest: point %d labeled %d, its cluster elsewhere %d", w.name, i, lb, perm[la])
			}
		}
		stab := func(sr *StableResult) []float64 {
			var s []float64
			for _, cl := range sr.Clusters {
				s = append(s, cl.Stability)
			}
			slices.Sort(s)
			return s
		}
		if sa, sb := stab(a), stab(b); !slices.Equal(sa, sb) {
			t.Fatalf("%s forest: stabilities %v vs %v", w.name, sb, sa)
		}
	}
}

// TestHierarchyMinPtsOne: MinPts=1 makes every point core with core
// distance zero — the degenerate case where each cut is pure single-linkage
// within eps.
func TestHierarchyMinPtsOne(t *testing.T) {
	rows := blobs(300, 2, 11)
	c, err := NewClusterer(rows, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 1.0, 2.0} {
		cut, err := h.CutEps(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, core := range cut.Core {
			if !core {
				t.Fatalf("eps=%v: point %d not core at MinPts=1", q, i)
			}
		}
		batch, err := Cluster(rows, Config{Eps: q, MinPts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := equivalentResults(cut, batch); err != nil {
			t.Fatalf("eps=%v: %v", q, err)
		}
	}
}
