package cellstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pdbscan/internal/atomicfile"
	"pdbscan/internal/grid"
)

// Write persists the grid cell structure c, laid out shard-contiguously by
// part, to path (through atomicfile, so a crash never leaves a partial or
// empty store behind). c must be a grid construction (Coords non-nil) and part a
// partition of exactly c's cells.
func Write(path string, c *grid.Cells, part *grid.Partition) error {
	if c.Coords == nil || c.Anchor == nil {
		return fmt.Errorf("cellstore: only the grid construction can be persisted (box cells have no lattice coords)")
	}
	n, d := c.Pts.N, c.Pts.D
	numCells := c.NumCells()
	if n == 0 {
		return fmt.Errorf("cellstore: refusing to write an empty store")
	}
	if d > maxDims {
		return fmt.Errorf("cellstore: %d dims exceeds format limit %d", d, maxDims)
	}
	if part == nil || len(part.ShardOf) != numCells {
		return fmt.Errorf("cellstore: partition does not match the cell structure")
	}
	shards := part.NumShards
	if shards > maxShards {
		return fmt.Errorf("cellstore: %d shards exceeds format limit %d", shards, maxShards)
	}

	// Store cell order: shard 0's owned cells (ascending original id), then
	// shard 1's, ... — the layout that makes any shard's halo window one
	// contiguous byte range.
	order := make([]int32, 0, numCells)
	shardEnd := make([]uint32, shards)
	winLo := make([]uint32, shards)
	winHi := make([]uint32, shards)
	for s := 0; s < shards; s++ {
		order = append(order, part.Owned[s]...)
		shardEnd[s] = uint32(len(order))
		lo, hi := s, s
		for _, g := range part.Halo[s] {
			if o := int(part.ShardOf[g]); o < lo {
				lo = o
			} else if o > hi {
				hi = o
			}
		}
		winLo[s], winHi[s] = uint32(lo), uint32(hi)
	}
	if len(order) != numCells {
		return fmt.Errorf("cellstore: partition owns %d cells, structure has %d", len(order), numCells)
	}

	metaLen := metaSize(d, n, numCells, shards)
	meta := make([]byte, 0, metaLen)
	putU32 := func(v uint32) { meta = binary.LittleEndian.AppendUint32(meta, v) }
	putU64 := func(v uint64) { meta = binary.LittleEndian.AppendUint64(meta, v) }
	for _, a := range c.Anchor {
		putU64(uint64(a))
	}
	pos := uint32(0)
	putU32(0)
	for _, g := range order {
		pos += uint32(c.CellSize(int(g)))
		putU32(pos)
	}
	for _, v := range shardEnd {
		putU32(v)
	}
	for _, v := range winLo {
		putU32(v)
	}
	for _, v := range winHi {
		putU32(v)
	}
	for _, g := range order {
		for j := 0; j < d; j++ {
			putU32(uint32(c.Coords[int(g)*d+j]))
		}
	}
	for _, g := range order {
		putU32(uint32(g))
	}
	for _, g := range order {
		for _, p := range c.PointsOf(int(g)) {
			putU32(uint32(p))
		}
	}
	if uint64(len(meta)) != metaLen {
		return fmt.Errorf("cellstore: internal error: metadata is %d bytes, expected %d", len(meta), metaLen)
	}

	dataOff := uint64(headerSize) + metaLen
	dataOff = (dataOff + pageAlign - 1) / pageAlign * pageAlign

	var hdr [headerSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(d))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(numCells))
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(shards))
	binary.LittleEndian.PutUint64(hdr[40:48], math.Float64bits(c.Eps))
	binary.LittleEndian.PutUint64(hdr[48:56], dataOff)
	sum := fnvSum(fnvSum(fnvNew(), hdr[0:56]), meta)
	binary.LittleEndian.PutUint64(hdr[56:64], sum)

	return atomicfile.Write(path, func(w io.Writer) error {
		pad := make([]byte, dataOff-uint64(headerSize)-metaLen)
		for _, b := range [][]byte{hdr[:], meta, pad} {
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		var row [8]byte
		for _, g := range order {
			for _, p := range c.PointsOf(int(g)) {
				base := int(p) * d
				for j := 0; j < d; j++ {
					binary.LittleEndian.PutUint64(row[:], math.Float64bits(c.Pts.Data[base+j]))
					if _, err := w.Write(row[:]); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}
