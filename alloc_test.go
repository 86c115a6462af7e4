package pdbscan

import (
	"testing"

	"pdbscan/internal/dataset"
)

// Steady-state allocation budgets. These pin the arena + kernel work: before
// it, a repeated Clusterer.Run on the batch configuration below allocated
// ~4300 times per run (per-pair BCP filter slices, per-cell core list
// growth, ~40 rebuilt scratch buffers); a streaming tick allocated in
// proportion to the cell count. The budgets leave headroom over the measured
// values (run with -v to see them) but sit 1-2 orders of magnitude below the
// pre-arena counts, so any reintroduced per-pair or per-cell allocation
// fails immediately.
//
// Both tests run with Workers: 1 — allocation counts are deterministic for a
// serial run, while parallel runs add goroutine/closure allocations that
// vary with GOMAXPROCS.
//
// The cell-major payload (grid.Cells.Payload) is materialized once at cell
// build time, alongside the grid itself, so it never appears in these per-run
// budgets: a steady-state Run reads the payload but allocates nothing for it.
// A payload rebuild leaking into the run path would blow the serial budget
// immediately (n*d floats is orders of magnitude over it).
const (
	batchRunAllocBudget      = 96
	streamingTickAllocBudget = 160

	// A parallel run adds the per-construct scheduling allocations (worker
	// closures, WaitGroup state) on top of the serial budget — proportional
	// to the pinned worker count times the fixed number of parallel
	// constructs per run, never to n or the cell count. The budget pins that:
	// a reintroduced per-chunk or per-cell allocation in the chunked
	// scheduler blows it immediately.
	batchRunWorkers4AllocBudget = 512
)

// TestClustererRunAllocBudget pins the steady-state allocation count of
// repeated Clusterer.Run calls on a warmed Clusterer.
func TestClustererRunAllocBudget(t *testing.T) {
	pts, err := dataset.Generate("ss-varden-2d", 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClustererFlat(pts.Data, pts.D, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 100, Method: Method2DGridBCP, Workers: 1}
	res, err := c.Run(cfg) // warm: lazy cell build + arena first fill
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters == 0 {
		t.Fatal("degenerate dataset: no clusters, budget would be meaningless")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state Clusterer.Run: %.0f allocs/op (budget %d)", allocs, batchRunAllocBudget)
	if allocs > batchRunAllocBudget {
		t.Errorf("steady-state Clusterer.Run allocated %.0f times, budget is %d", allocs, batchRunAllocBudget)
	}
}

// TestClustererRunAllocBudgetWorkers4 pins the steady-state allocation count
// of a parallel (Workers: 4) repeated Run: the chunk-claiming scheduler must
// cost O(workers) allocations per construct, not O(chunks) or O(cells).
func TestClustererRunAllocBudgetWorkers4(t *testing.T) {
	pts, err := dataset.Generate("ss-varden-2d", 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClustererFlat(pts.Data, pts.D, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 100, Method: Method2DGridBCP, Workers: 4}
	res, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters == 0 {
		t.Fatal("degenerate dataset: no clusters, budget would be meaningless")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state Clusterer.Run (Workers: 4): %.0f allocs/op (budget %d)", allocs, batchRunWorkers4AllocBudget)
	if allocs > batchRunWorkers4AllocBudget {
		t.Errorf("steady-state parallel Clusterer.Run allocated %.0f times, budget is %d", allocs, batchRunWorkers4AllocBudget)
	}
}

// TestStreamingTickAllocBudget pins the allocation count of a mutation-free
// streaming Run (the tick fast path: everything reused, only the result and
// bookkeeping allocated).
func TestStreamingTickAllocBudget(t *testing.T) {
	pts, err := dataset.Generate("ss-varden-2d", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamingClusterer(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertFlat(pts.Data); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 50, Workers: 1}
	if _, err := s.Run(cfg); err != nil { // warm: full first tick
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mutation-free streaming tick: %.0f allocs/op (budget %d)", allocs, streamingTickAllocBudget)
	if allocs > streamingTickAllocBudget {
		t.Errorf("mutation-free streaming tick allocated %.0f times, budget is %d", allocs, streamingTickAllocBudget)
	}
}
