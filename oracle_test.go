// oracle_test.go is the repo's ground-truth harness: every method is
// cross-checked against the O(n²) brute-force reference DBSCAN
// (internal/metrics.BruteDBSCAN — exact core/border/noise semantics,
// including multi-membership border points) over a matrix of adversarial
// layouts and dimensionalities, up to cluster label permutation. The exact
// methods must reproduce the oracle exactly; the approximate methods must
// satisfy the Gan–Tao validity conditions against the same oracle
// definitions. The streaming clusterer is held to the same standard on
// mutated point sets.
package pdbscan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
)

// oracleLayout generates an adversarial point set for dimension d. eps and
// the MinPts values to try ride along, chosen so the layout exercises the
// regime it is named after.
type oracleLayout struct {
	name   string
	eps    float64
	minPts []int
	gen    func(d int) [][]float64
}

func repeatRow(v float64, d int) []float64 {
	row := make([]float64, d)
	for j := range row {
		row[j] = v
	}
	return row
}

var oracleLayouts = []oracleLayout{
	{
		// Duplicate points: several stacks of identical coordinates. Core
		// counts must count multiplicity; a stack of minPts duplicates is
		// core on its own.
		name: "duplicates", eps: 1.0, minPts: []int{2, 4, 7},
		gen: func(d int) [][]float64 {
			var rows [][]float64
			for s := 0; s < 5; s++ {
				site := repeatRow(float64(s)*3, d)
				for k := 0; k < 3+s; k++ {
					rows = append(rows, site)
				}
			}
			return rows
		},
	},
	{
		// Collinear points along the first axis at spacing eps/2: a chain
		// where connectivity hops exactly along cell boundaries.
		name: "collinear", eps: 1.0, minPts: []int{2, 3, 5},
		gen: func(d int) [][]float64 {
			var rows [][]float64
			for i := 0; i < 30; i++ {
				row := repeatRow(0, d)
				row[0] = float64(i) * 0.5
				rows = append(rows, row)
			}
			return rows
		},
	},
	{
		// One cell: everything inside a single grid cell (diameter << eps),
		// hitting the |cell| >= minPts all-core shortcut and its complement.
		name: "one-cell", eps: 10.0, minPts: []int{3, 10, 40},
		gen: func(d int) [][]float64 {
			rng := rand.New(rand.NewSource(5))
			rows := make([][]float64, 30)
			for i := range rows {
				row := make([]float64, d)
				for j := range row {
					row[j] = 100 + rng.Float64()*0.5
				}
				rows[i] = row
			}
			return rows
		},
	},
	{
		// All noise: points spread so far apart nothing is core (for
		// minPts > 1); with minPts = 1 every point is its own cluster.
		name: "all-noise", eps: 1.0, minPts: []int{1, 2, 5},
		gen: func(d int) [][]float64 {
			rows := make([][]float64, 25)
			for i := range rows {
				row := repeatRow(float64(i*i)*7, d)
				row[d-1] = float64(i) * 50
				rows[i] = row
			}
			return rows
		},
	},
	{
		// Eps-boundary pairs: points at axis-aligned distance exactly eps
		// (d <= eps is inclusive — the pair must count), plus pairs just
		// beyond (must not count). Integer coordinates keep the distances
		// exact in float64.
		name: "eps-boundary", eps: 4.0, minPts: []int{2, 3},
		gen: func(d int) [][]float64 {
			var rows [][]float64
			for p := 0; p < 6; p++ {
				a := repeatRow(0, d)
				a[0] = float64(p) * 100
				b := append([]float64(nil), a...)
				b[1] = 4 // exactly eps away
				c := append([]float64(nil), a...)
				c[1] = -5 // just beyond eps
				rows = append(rows, a, b, c)
			}
			return rows
		},
	},
	{
		// Lattice at exact eps spacing along each axis: every neighbor pair
		// is a boundary case and borders abound.
		name: "eps-lattice", eps: 2.0, minPts: []int{3, 5},
		gen: func(d int) [][]float64 {
			var rows [][]float64
			per := 4
			if d >= 5 {
				per = 2
			}
			var rec func(row []float64, j int)
			rec = func(row []float64, j int) {
				if j == d {
					rows = append(rows, append([]float64(nil), row...))
					return
				}
				for k := 0; k < per; k++ {
					row[j] = float64(k) * 2
					rec(row, j+1)
				}
			}
			rec(make([]float64, d), 0)
			return rows
		},
	},
	{
		// Random blobs with noise: the general regime.
		name: "blobs", eps: 1.5, minPts: []int{4, 8},
		gen: func(d int) [][]float64 {
			rng := rand.New(rand.NewSource(11))
			rows := make([][]float64, 120)
			for i := range rows {
				row := make([]float64, d)
				center := float64(rng.Intn(3)) * 6
				for j := range row {
					row[j] = center + rng.NormFloat64()
				}
				rows[i] = row
			}
			return rows
		},
	},
	{
		// Negative and lattice-straddling coordinates: exercises the
		// absolute-grid anchoring around 0.
		name: "straddle-origin", eps: 1.0, minPts: []int{2, 4},
		gen: func(d int) [][]float64 {
			rng := rand.New(rand.NewSource(17))
			rows := make([][]float64, 80)
			for i := range rows {
				row := make([]float64, d)
				for j := range row {
					row[j] = (rng.Float64() - 0.5) * 4
				}
				rows[i] = row
			}
			return rows
		},
	},
	{
		// Exact-eps chain along the first axis: consecutive points at
		// distance exactly eps form one long cluster whose every link
		// crosses cells — the cell graph must treat d == eps as connected or
		// the chain shatters. Any spatial cut of the lattice (an out-of-core
		// store's shards cut along this axis, the one with the most occupied
		// slabs) splits an exact-eps pair. Integer coordinates keep the
		// distances exact in float64.
		name: "shard-chain", eps: 2.0, minPts: []int{2, 3},
		gen: func(d int) [][]float64 {
			var rows [][]float64
			for i := 0; i < 40; i++ {
				row := repeatRow(0, d)
				row[0] = float64(i) * 2 // exactly eps apart
				rows = append(rows, row)
			}
			return rows
		},
	},
	{
		// Dense blobs strung along the first axis with single-point bridges
		// between them: connectivity must flow through cell-graph edges
		// between blob fringes and bridge points, and border points near the
		// bridges must resolve against core cells several cells away.
		name: "halo-blobs", eps: 1.5, minPts: []int{4, 6},
		gen: func(d int) [][]float64 {
			rng := rand.New(rand.NewSource(23))
			var rows [][]float64
			for b := 0; b < 5; b++ {
				cx := float64(b) * 6
				for i := 0; i < 25; i++ {
					row := make([]float64, d)
					row[0] = cx + rng.NormFloat64()*0.8
					for j := 1; j < d; j++ {
						row[j] = rng.NormFloat64() * 0.8
					}
					rows = append(rows, row)
				}
				if b < 4 {
					// Bridge midway to the next blob: within eps of both
					// fringes for small d, a border/noise frontier for
					// larger d.
					bridge := repeatRow(0, d)
					bridge[0] = cx + 3
					rows = append(rows, bridge)
				}
			}
			return rows
		},
	},
}

// oracleCheck runs one method over one layout and compares the result
// against the brute-force reference.
func oracleCheck(t *testing.T, rows [][]float64, cfg Config, ctx string) {
	t.Helper()
	res, err := Cluster(rows, cfg)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	rho := 0.0 // exact
	if cfg.Method == MethodApprox || cfg.Method == MethodApproxQt {
		rho = cfg.Rho
		if rho == 0 {
			rho = 0.01
		}
	}
	if err := oracleVerdict(pts, cfg.Eps, cfg.MinPts, rho, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// oracleVerdict holds one clustering to the brute-force reference: with
// rho == 0 it must be the exact DBSCAN result; with rho > 0 it must be a
// valid Gan–Tao rho-approximate one.
func oracleVerdict(pts geom.Points, eps float64, minPts int, rho float64,
	coreFlags []bool, labels []int32, border map[int32][]int32, numClusters int) error {
	if rho > 0 {
		if err := metrics.ValidApproxResult(pts, eps, rho, minPts, coreFlags, labels, border); err != nil {
			return fmt.Errorf("approx validity: %w", err)
		}
		return nil
	}
	return metrics.SameDBSCANResult(metrics.BruteDBSCAN(pts, eps, minPts), coreFlags, labels, border, numClusters)
}

// TestOracleConformance is the full matrix: every method × {2, 3, 5}
// dimensions × every adversarial layout × the layout's MinPts values, each
// run held to the oracle (exact methods) or to Gan–Tao validity against it
// (approximate methods).
func TestOracleConformance(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			for _, layout := range oracleLayouts {
				rows := layout.gen(d)
				for _, m := range streamMethodsFor(d) {
					for _, minPts := range layout.minPts {
						cfg := Config{Eps: layout.eps, MinPts: minPts, Method: m}
						oracleCheck(t, rows, cfg, fmt.Sprintf("%s d=%d %s minPts=%d", layout.name, d, m, minPts))
					}
				}
			}
		})
	}
}

// hierarchyQueryGrid derives the CutEps query radii for a layout: fixed
// fractions of the build eps plus a sample of the exact pairwise distances
// at most eps (computed O(n²); the layouts are small). Exact-distance
// queries are the adversarial cases — d <= eps is inclusive, so a query at
// precisely an edge's length must connect that edge on both paths.
func hierarchyQueryGrid(rows [][]float64, eps float64) []float64 {
	seen := map[float64]bool{}
	var qs []float64
	add := func(q float64) {
		if q > 0 && q <= eps && !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	for _, f := range []float64{1, 0.75, 0.5, 0.25, 0.1} {
		add(eps * f)
	}
	dists := map[float64]bool{}
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			d2 := 0.0
			for k := range rows[i] {
				dk := rows[i][k] - rows[j][k]
				d2 += dk * dk
			}
			if d := math.Sqrt(d2); d > 0 && d <= eps {
				dists[d] = true
			}
		}
	}
	ds := make([]float64, 0, len(dists))
	for d := range dists {
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	if len(ds) <= 8 {
		for _, d := range ds {
			add(d)
		}
	} else {
		for k := 0; k < 8; k++ {
			add(ds[k*(len(ds)-1)/7])
		}
	}
	return qs
}

// TestOracleHierarchyConformance pins the tentpole equivalence: for every
// layout × {2, 3, 5} dimensions × the layout's MinPts values, one
// BuildHierarchy at the layout's eps must answer every query radius —
// including exact edge distances — label-permutation-equal to a from-scratch
// batch Cluster at that radius. The batch side is itself held to the
// brute-force oracle by TestOracleConformance, so transitively CutEps is
// oracle-exact too.
func TestOracleHierarchyConformance(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			for _, layout := range oracleLayouts {
				rows := layout.gen(d)
				queries := hierarchyQueryGrid(rows, layout.eps)
				c, err := NewClusterer(rows, layout.eps)
				if err != nil {
					t.Fatalf("%s d=%d: %v", layout.name, d, err)
				}
				for _, minPts := range layout.minPts {
					ctx := fmt.Sprintf("%s d=%d minPts=%d", layout.name, d, minPts)
					h, err := c.BuildHierarchy(minPts)
					if err != nil {
						t.Fatalf("%s: BuildHierarchy: %v", ctx, err)
					}
					for _, q := range queries {
						cut, err := h.CutEps(q)
						if err != nil {
							t.Fatalf("%s: CutEps(%v): %v", ctx, q, err)
						}
						batch, err := Cluster(rows, Config{Eps: q, MinPts: minPts})
						if err != nil {
							t.Fatalf("%s: batch at eps=%v: %v", ctx, q, err)
						}
						if err := equivalentResults(cut, batch); err != nil {
							t.Fatalf("%s: CutEps(%v) vs batch: %v", ctx, q, err)
						}
					}
				}
			}
		})
	}
}

// TestOracleConformanceStreaming holds StreamingClusterer to the oracle
// standard across mutations: build each layout incrementally, then remove a
// third of it, checking against the brute-force reference at each stage.
func TestOracleConformanceStreaming(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			for _, layout := range oracleLayouts {
				rows := layout.gen(d)
				for _, m := range streamMethodsFor(d) {
					minPts := layout.minPts[len(layout.minPts)-1]
					ctx := fmt.Sprintf("streaming %s d=%d %s minPts=%d", layout.name, d, m, minPts)
					s, err := NewStreamingClusterer(d, layout.eps)
					if err != nil {
						t.Fatal(err)
					}
					half := len(rows) / 2
					ids, err := s.Insert(rows[:half])
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					cfg := Config{MinPts: minPts, Method: m}
					streamOracleCheck(t, s, cfg, ctx+" (half)")
					if _, err := s.Insert(rows[half:]); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					streamOracleCheck(t, s, cfg, ctx+" (full)")
					if err := s.Remove(ids[:len(ids)/2]...); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					streamOracleCheck(t, s, cfg, ctx+" (after removal)")
				}
			}
		})
	}
}

// streamOracleCheck compares a streaming run against the brute-force oracle
// on the stream's current points (exact methods), or checks Gan–Tao validity
// (approx methods).
func streamOracleCheck(t *testing.T, s *StreamingClusterer, cfg Config, ctx string) {
	t.Helper()
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	rows := make([][]float64, 0, s.Len())
	for _, id := range s.IDs() {
		row, _ := s.Point(id)
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return
	}
	pts, err := geom.FromRows(rows)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if cfg.Method == MethodApprox || cfg.Method == MethodApproxQt {
		rho := cfg.Rho
		if rho == 0 {
			rho = 0.01
		}
		if err := metrics.ValidApproxResult(pts, s.Eps(), rho, cfg.MinPts,
			res.Core, res.Labels, res.Border); err != nil {
			t.Fatalf("%s: approx validity: %v", ctx, err)
		}
		return
	}
	ref := metrics.BruteDBSCAN(pts, s.Eps(), cfg.MinPts)
	if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// equivalentResults checks that two results are the same clustering up to a
// bijective relabeling of clusters: identical core flags and noise, a
// consistent label bijection over every point, and border membership sets
// that match under that bijection. labelsEqual is the strict (identity
// relabeling) form; this is the invariance that holds between paths that run
// on different cell layouts or number clusters differently (store-backed
// 2d-box-* runs, hierarchy cuts).
func equivalentResults(a, b *Result) error {
	if len(a.Labels) != len(b.Labels) {
		return fmt.Errorf("length %d vs %d", len(a.Labels), len(b.Labels))
	}
	if a.NumClusters != b.NumClusters {
		return fmt.Errorf("NumClusters %d vs %d", a.NumClusters, b.NumClusters)
	}
	// The bijection is built from core points only: a core point belongs to
	// exactly one cluster, and every cluster has core points, so the core
	// rows determine the full correspondence. Border primary labels cannot
	// seed it — a multi-membership border point takes the smallest label in
	// each result's own numbering, which may name different clusters on the
	// two sides.
	ab := make([]int32, a.NumClusters) // a-label -> b-label
	ba := make([]int32, b.NumClusters)
	for i := range ab {
		ab[i] = -1
	}
	for i := range ba {
		ba[i] = -1
	}
	for i := range a.Labels {
		if a.Core[i] != b.Core[i] {
			return fmt.Errorf("core flag of point %d: %v vs %v", i, a.Core[i], b.Core[i])
		}
		if !a.Core[i] {
			continue
		}
		la, lb := a.Labels[i], b.Labels[i]
		if ab[la] == -1 && ba[lb] == -1 {
			ab[la], ba[lb] = lb, la
		} else if ab[la] != lb || ba[lb] != la {
			return fmt.Errorf("core point %d breaks the label bijection: %d vs %d (mapped %d, %d)", i, la, lb, ab[la], ba[lb])
		}
	}
	// Every point's full membership set must match under the bijection
	// (border points may belong to several clusters; noise to none).
	memberships := func(r *Result, i int) []int32 {
		if m, ok := r.Border[int32(i)]; ok {
			return m
		}
		if r.Labels[i] < 0 {
			return nil
		}
		return []int32{r.Labels[i]}
	}
	for i := range a.Labels {
		ma, mb := memberships(a, i), memberships(b, i)
		if len(ma) != len(mb) {
			return fmt.Errorf("point %d: memberships %v vs %v", i, ma, mb)
		}
		set := make(map[int32]bool, len(ma))
		for _, l := range ma {
			set[ab[l]] = true
		}
		for _, l := range mb {
			if !set[l] {
				return fmt.Errorf("point %d: memberships %v map to %v, missing %d", i, ma, set, l)
			}
		}
	}
	return nil
}
