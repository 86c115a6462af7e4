package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// writeTestStore persists cells as a cell store of the given shard count and
// opens it, closed when the test ends.
func writeTestStore(t *testing.T, cells *grid.Cells, shards int) *cellstore.Store {
	t.Helper()
	part, err := grid.MakePartition(nil, cells, shards)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pts.cells")
	if err := cellstore.Write(path, cells, part); err != nil {
		t.Fatal(err)
	}
	store, err := cellstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestRunOutOfCoreCancelAtEveryBoundary cancels RunOutOfCore from the
// PhaseHook at each of its boundary firings — every window turn of both
// passes plus the label step — for several shard layouts and graph
// strategies. Each cancelled run returns context.Canceled and no result, and
// the clean run that follows on the same arena is identical to Run on the
// in-RAM cells.
func TestRunOutOfCoreCancelAtEveryBoundary(t *testing.T) {
	pts := clusteredPoints(3000, 2, 100, 7)
	cells := buildGridCells(pts, 2.0)
	strategies := []struct {
		name  string
		mark  MarkStrategy
		graph GraphStrategy
	}{
		{"bcp", MarkScan, GraphBCP},
		{"quadtree", MarkQuadtree, GraphQuadtree},
		{"delaunay", MarkScan, GraphDelaunay},
	}
	for _, shards := range []int{1, 3} {
		store := writeTestStore(t, cells, shards)
		if store.NumShards() != shards {
			t.Fatalf("store has %d shards, want %d", store.NumShards(), shards)
		}
		for _, sg := range strategies {
			label := fmt.Sprintf("shards=%d %s", shards, sg.name)
			base := Params{MinPts: 8, Mark: sg.mark, Graph: sg.graph, Arena: NewArena()}
			want, err := Run(cells, base)
			if err != nil {
				t.Fatal(err)
			}
			firings := 0
			counted := base
			counted.PhaseHook = func(string) { firings++ }
			if _, _, err := RunOutOfCore(store, counted, 0); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			total := firings
			for k := 1; k <= total; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				p := base
				p.Exec = parallel.NewPoolContext(ctx, 0)
				firings = 0
				p.PhaseHook = func(string) {
					if firings++; firings == k {
						cancel()
					}
				}
				res, stats, err := RunOutOfCore(store, p, 0)
				cancel()
				if !errors.Is(err, context.Canceled) || res != nil || stats != nil {
					t.Fatalf("%s: cancel at boundary %d/%d: err = %v, want context.Canceled and no result", label, k, total, err)
				}
				got, _, err := RunOutOfCore(store, base, 0)
				if err != nil {
					t.Fatalf("%s: run after cancel at boundary %d: %v", label, k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: run after cancel at boundary %d differs from Run", label, k)
				}
			}
		}
	}
}
