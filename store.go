package pdbscan

import (
	"fmt"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// autoShardPoints is the point count one WriteStore shard targets when the
// caller leaves the layout to the default: small enough that multi-million-
// point stores decompose into windows far below the dataset size, large
// enough that per-shard bookkeeping never dominates.
const autoShardPoints = 1 << 16

// WriteStore persists this Clusterer's grid cell structure and points to path
// as an mmap-able cell store (internal/cellstore format), laid out
// shard-contiguously so a Clusterer from OpenStoreClusterer can later
// cluster the dataset one shard window at a time. shards controls the layout
// granularity — more shards mean smaller resident windows; shards <= 0 picks
// roughly one shard per 64k points. The grid structure is built first if no
// run has needed it yet (with a default worker pool).
//
// The store records the permutation back to this Clusterer's point order, so
// runs on the reopened store return labels indexed exactly like runs here.
func (c *Clusterer) WriteStore(path string, shards int) error {
	if c.store != nil {
		return fmt.Errorf("pdbscan: this Clusterer is already store-backed; copy the store file instead of re-exporting it")
	}
	ex := parallel.NewPool(0)
	cells, err := c.cellsFor(false, ex)
	if err != nil {
		return err
	}
	if shards <= 0 {
		shards = c.pts.N / autoShardPoints
		if shards < 1 {
			shards = 1
		}
	}
	part, err := grid.MakePartition(ex, cells, shards)
	if err != nil {
		return err
	}
	return cellstore.Write(path, cells, part)
}

// OpenStoreClusterer opens a cell store written by WriteStore and returns an
// out-of-core Clusterer backed by it: every Run sweeps the store one shard
// halo window at a time (mapped straight from the file), so only a sliver of
// the point data is ever resident. maxResidentBytes > 0 is a hard budget on
// the point-data bytes of one window (page rounding included): a window over
// it fails the run with an error naming the shortfall — rewrite the store
// with more shards, or raise the budget. 0 means no budget. The run's O(n)
// bookkeeping (core flags, labels, the cell-level union-find, the store
// metadata) is small and outside the budget; RunStats.PeakResidentBytes
// reports what was actually mapped.
//
// Results are indexed in the point order of the Clusterer that wrote the
// store: bit-identical to that Clusterer's own results for every grid-layout
// method, and permutation-equal for the 2d-box-* methods (which the store
// serves from the grid layout). Samplers are rejected at Run (their counting
// set is the whole dataset), and BuildHierarchy needs an in-memory
// Clusterer; Prepare is a no-op, since windows need no prebuilt structure.
//
// Call Close when done to release the file handle.
func OpenStoreClusterer(path string, maxResidentBytes int64) (*Clusterer, error) {
	if maxResidentBytes < 0 {
		return nil, fmt.Errorf("pdbscan: maxResidentBytes must not be negative, got %d (0 means no budget)", maxResidentBytes)
	}
	st, err := cellstore.Open(path)
	if err != nil {
		return nil, err
	}
	return &Clusterer{
		// Data stays nil: points are only ever read through window mappings.
		pts:         geom.Points{N: st.NumPoints(), D: st.Dims()},
		eps:         st.Eps(),
		arena:       core.NewArena(),
		store:       st,
		maxResident: maxResidentBytes,
	}, nil
}

// Close releases a store-backed Clusterer's file handle. It is a no-op for
// in-memory Clusterers. The Clusterer must not be used after Close.
func (c *Clusterer) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}
