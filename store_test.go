package pdbscan

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// storeMethodsFor lists every clustering method applicable at dimension d,
// paired with the equivalence each one guarantees for store-backed runs:
// grid-layout methods are bit-identical to the writing Clusterer's results,
// 2d-box-* methods (different monolithic cell layout) are equivalent up to a
// label bijection.
func storeMethodsFor(d int) []struct {
	m     Method
	rho   float64
	exact bool
} {
	out := []struct {
		m     Method
		rho   float64
		exact bool
	}{
		{MethodExact, 0, true},
		{MethodExactQt, 0, true},
		{MethodApprox, 0.05, true},
		{MethodApproxQt, 0.05, true},
	}
	if d == 2 {
		out = append(out, []struct {
			m     Method
			rho   float64
			exact bool
		}{
			{Method2DGridBCP, 0, true},
			{Method2DGridUSEC, 0, true},
			{Method2DGridDelaunay, 0, true},
			{Method2DBoxBCP, 0, false},
			{Method2DBoxUSEC, 0, false},
			{Method2DBoxDelaunay, 0, false},
		}...)
	}
	return out
}

// openTestStore writes ref's points as a cell store of the given shard count
// and reopens it as a store-backed Clusterer under budget, closed when the
// test ends.
func openTestStore(t *testing.T, ref *Clusterer, shards int, budget int64) *Clusterer {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.cells")
	if err := ref.WriteStore(path, shards); err != nil {
		t.Fatalf("shards=%d: WriteStore: %v", shards, err)
	}
	sc, err := OpenStoreClusterer(path, budget)
	if err != nil {
		t.Fatalf("shards=%d: OpenStoreClusterer: %v", shards, err)
	}
	t.Cleanup(func() {
		if err := sc.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return sc
}

// TestStoreRoundTripConformance is the tentpole exactness check: write a cell
// store, reopen it, and every run on the reopened store — out of core,
// across every method and several shard layouts — must reproduce the
// writing Clusterer's results.
func TestStoreRoundTripConformance(t *testing.T) {
	for _, d := range []int{2, 3} {
		rows := blobs(1200, d, 11)
		eps := 3.0
		ref, err := NewClusterer(rows, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 7} {
			sc := openTestStore(t, ref, shards, 0)
			if sc.NumPoints() != ref.NumPoints() || sc.Dims() != d {
				t.Fatalf("d=%d shards=%d: store has %d points/%d dims", d, shards, sc.NumPoints(), sc.Dims())
			}
			for _, mc := range storeMethodsFor(d) {
				cfg := Config{Eps: eps, MinPts: 8, Method: mc.m, Rho: mc.rho}
				want, err := ref.Run(cfg)
				if err != nil {
					t.Fatalf("d=%d %s: reference Run: %v", d, mc.m, err)
				}
				got, err := sc.Run(cfg)
				if err != nil {
					t.Fatalf("d=%d shards=%d %s: store Run: %v", d, shards, mc.m, err)
				}
				if mc.exact {
					if err := labelsEqual(want, got); err != nil {
						t.Fatalf("d=%d shards=%d %s: store run differs: %v", d, shards, mc.m, err)
					}
				} else if err := equivalentResults(want, got); err != nil {
					t.Fatalf("d=%d shards=%d %s: store run not equivalent: %v", d, shards, mc.m, err)
				}
				st := sc.LastRunStats()
				if st.Shards != shards || st.BytesMapped <= 0 || st.PeakResidentBytes <= 0 || st.ShardsResidentPeak < 1 {
					t.Fatalf("d=%d shards=%d %s: out-of-core stats not recorded: %+v", d, shards, mc.m, st)
				}
				if st.PeakResidentBytes > st.BytesMapped {
					t.Fatalf("d=%d shards=%d %s: peak %d exceeds total mapped %d", d, shards, mc.m, st.PeakResidentBytes, st.BytesMapped)
				}
			}
		}
	}
}

// TestStoreSpillBudget checks the hard residency budget: a window larger than
// the store's maxResidentBytes must fail with an actionable error, and a
// budget that admits every window must succeed and stay under it.
func TestStoreSpillBudget(t *testing.T) {
	rows := blobs(2000, 2, 3)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	tiny := openTestStore(t, ref, 8, 4096)
	_, err = tiny.Run(Config{Eps: 3.0, MinPts: 8})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("tiny budget: want budget error, got %v", err)
	}

	budget := int64(ref.NumPoints()) * 2 * 8 // whole dataset fits
	ample := openTestStore(t, ref, 8, budget)
	if _, err := ample.Run(Config{Eps: 3.0, MinPts: 8}); err != nil {
		t.Fatalf("ample budget: %v", err)
	}
	if st := ample.LastRunStats(); st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
	}
}

// TestStoreMisuse covers the rejected store API combinations.
func TestStoreMisuse(t *testing.T) {
	rows := blobs(300, 2, 5)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pts.cells")
	if err := ref.WriteStore(path, 3); err != nil {
		t.Fatal(err)
	}

	// A negative residency budget.
	if _, err := OpenStoreClusterer(path, -1); err == nil || !strings.Contains(err.Error(), "maxResidentBytes") {
		t.Fatalf("negative budget: want maxResidentBytes error, got %v", err)
	}

	sc := openTestStore(t, ref, 3, 0)

	// Samplers count over the whole dataset; out-of-core runs reject them.
	if _, err := sc.Run(Config{MinPts: 5, Sampler: SamplerUniform, SampleFrac: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "Sampler") {
		t.Fatalf("Sampler on store-backed Clusterer: want Sampler error, got %v", err)
	}

	// Re-exporting a store-backed Clusterer would compound permutations.
	if err := sc.WriteStore(filepath.Join(t.TempDir(), "again.cells"), 2); err == nil {
		t.Fatal("WriteStore on store-backed Clusterer: want error, got nil")
	}

	// Close is idempotent for in-memory Clusterers.
	if err := ref.Close(); err != nil {
		t.Fatalf("Close on in-memory Clusterer: %v", err)
	}
}

// TestStoreHierarchyRejected: a hierarchy build needs every point resident,
// so a store-backed Clusterer refuses it with an error — never a worker
// panic, and never cuts indexed in store order — both before any run and
// after runs, and Prepare stays a no-op that leaves runs exact.
func TestStoreHierarchyRejected(t *testing.T) {
	rows := blobs(1200, 2, 17)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 8}
	want, err := ref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := openTestStore(t, ref, 3, 0)
	check := func(when string) {
		t.Helper()
		if h, err := sc.BuildHierarchy(8); err == nil || h != nil || !strings.Contains(err.Error(), "store-backed") {
			t.Fatalf("%s: BuildHierarchy = (%v, %v), want a store-backed error", when, h, err)
		}
		if h, err := sc.BuildHierarchyContext(context.Background(), cfg); err == nil || h != nil || !strings.Contains(err.Error(), "store-backed") {
			t.Fatalf("%s: BuildHierarchyContext = (%v, %v), want a store-backed error", when, h, err)
		}
	}
	check("before any run")
	if err := sc.Prepare(cfg); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for _, m := range []Method{MethodAuto, Method2DBoxBCP} {
		if err := sc.Prepare(Config{MinPts: 8, Method: m}); err != nil {
			t.Fatalf("Prepare %s: %v", m, err)
		}
		if _, err := sc.Run(Config{MinPts: 8, Method: m}); err != nil {
			t.Fatalf("Run %s: %v", m, err)
		}
	}
	check("after runs")
	got, err := sc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelsEqual(want, got); err != nil {
		t.Fatalf("run after rejected builds differs: %v", err)
	}
}

// TestStoreRunCancel cancels a store-backed RunContext at every phase
// boundary of both out-of-core passes (via the Clusterer's PhaseHook seam):
// each cancelled run returns context.Canceled and no result, and the next
// run equals the writing Clusterer's.
func TestStoreRunCancel(t *testing.T) {
	rows := blobs(1500, 2, 19)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 8}
	want, err := ref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := openTestStore(t, ref, 3, 0)
	firings := 0
	sc.phaseHook = func(string) { firings++ }
	if _, err := sc.Run(cfg); err != nil {
		t.Fatal(err)
	}
	total := firings
	if total < 2*3 {
		t.Fatalf("only %d phase boundaries in a 3-shard run", total)
	}
	for k := 1; k <= total; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		firings = 0
		sc.phaseHook = func(string) {
			if firings++; firings == k {
				cancel()
			}
		}
		res, err := sc.RunContext(ctx, cfg)
		cancel()
		sc.phaseHook = nil
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel at boundary %d/%d: (%v, %v), want context.Canceled", k, total, res, err)
		}
		got, err := sc.Run(cfg)
		if err != nil {
			t.Fatalf("run after cancel at boundary %d: %v", k, err)
		}
		if err := labelsEqual(want, got); err != nil {
			t.Fatalf("run after cancel at boundary %d differs: %v", k, err)
		}
	}
}

// TestStoreRunStats pins that out-of-core window turns time their phases
// through the pipeline's phase transitions: every phase group is nonzero and
// the breakdown sums to the total.
func TestStoreRunStats(t *testing.T) {
	rows := blobs(4000, 2, 29)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	sc := openTestStore(t, ref, 4, 0)
	if _, err := sc.Run(Config{MinPts: 8}); err != nil {
		t.Fatal(err)
	}
	st := sc.LastRunStats()
	if st.MarkCore <= 0 || st.ClusterCore <= 0 || st.Border <= 0 {
		t.Fatalf("out-of-core phases not timed: %+v", st)
	}
	if st.Build+st.MarkCore+st.ClusterCore+st.Border != st.Total {
		t.Fatalf("Build + MarkCore + ClusterCore + Border = %v, Total = %v",
			st.Build+st.MarkCore+st.ClusterCore+st.Border, st.Total)
	}
	if st.Shards != 4 || st.Workers < 1 {
		t.Fatalf("Shards = %d, Workers = %d", st.Shards, st.Workers)
	}
}
