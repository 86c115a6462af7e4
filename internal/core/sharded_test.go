package core

import (
	"math/rand"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
)

// shardedTestCells builds grid cells with neighbors for random clustered
// points.
func shardedTestCells(t *testing.T, n, d int, seed int64, eps float64) *grid.Cells {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := 0; i < n; i++ {
		cx := float64(rng.Intn(4)) * 5
		for j := 0; j < d; j++ {
			data[i*d+j] = cx + rng.NormFloat64()
		}
	}
	pts := geom.Points{N: n, D: d, Data: data}
	c := grid.BuildGrid(nil, pts, eps)
	c.ComputeNeighborsEnum(nil)
	return c
}

// TestRunShardedValidation: bad params and mismatched partitions are
// rejected.
func TestRunShardedValidation(t *testing.T) {
	cells := shardedTestCells(t, 200, 2, 1, 1.0)
	part, err := grid.MakePartition(nil, cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSharded(cells, Params{MinPts: 0}, part); err == nil {
		t.Fatal("MinPts=0 accepted")
	}
	if _, err := RunSharded(cells, Params{MinPts: 2}, nil); err == nil {
		t.Fatal("nil partition accepted")
	}
	other := shardedTestCells(t, 50, 2, 2, 1.0)
	otherPart, err := grid.MakePartition(nil, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSharded(cells, Params{MinPts: 2}, otherPart); err == nil {
		t.Fatal("partition of different cells accepted")
	}
	if _, err := RunSharded(cells, Params{MinPts: 2, Graph: GraphApprox}, part); err == nil {
		t.Fatal("GraphApprox without Rho accepted")
	}
}
