package core

import (
	"fmt"

	"pdbscan/internal/grid"
)

// RunSharded checks that part is a Partition of exactly cells and then runs
// Run; the result is Run's, bit for bit. It is not an execution path of its
// own: in-memory runs parallelize inside each phase of Run and are never
// sharded. It stays because code outside this module, such as the perfbench
// replay, still calls it. Params.PhaseHook never sees a "merge" phase, and
// PhaseTimings.Merge stays zero.
func RunSharded(cells *grid.Cells, p Params, part *grid.Partition) (*Result, error) {
	if part == nil || len(part.ShardOf) != cells.NumCells() {
		return nil, fmt.Errorf("core: RunSharded requires a Partition of the given cells")
	}
	return Run(cells, p)
}
