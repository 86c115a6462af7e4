package main

import (
	"fmt"
	"net/http"
	"time"

	"pdbscan"
	"pdbscan/internal/core"
	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/metrics"
	"pdbscan/internal/parallel"
	"pdbscan/serve"
)

// batchParams sizes batch-http-2d.
type batchParams struct {
	n       int
	eps     float64
	minPts  int   // the cold first run of each session
	warm    []int // one warm run each per iteration, in this order
	warmupN int   // points in the set-up's warm-up session
}

var batchDefaults = batchParams{n: 300000, eps: 2, minPts: 10, warm: []int{5, 10, 20}, warmupN: 30000}

// batch is the batch-http-2d workload: each iteration creates a batch session
// with JSON points, runs it cold, runs it warm at each of the warm minPts, and
// deletes it, over one loopback connection.
type batch struct {
	p    batchParams
	pts  geom.Points
	rows [][]float64
	refs map[int]*metrics.BruteResult // by minPts: in-process ClusterFlat
	grid *pointGrid                   // the points, for checking wire results
	wrap func(http.Handler) http.Handler
	tgt  *target
	iter int // iterations since the last set-up
}

func newBatch(p batchParams, seed int64) (*batch, error) {
	pts, err := dataset.Generate("uniform-2d", p.n, seed)
	if err != nil {
		return nil, err
	}
	g, err := newPointGrid(pts.Data, pts.D, p.eps)
	if err != nil {
		return nil, err
	}
	b := &batch{p: p, pts: pts, rows: rowsOf(pts), refs: map[int]*metrics.BruteResult{}, grid: g}
	for _, mp := range b.minPtsAll() {
		res, err := pdbscan.ClusterFlat(pts.Data, pts.D, pdbscan.Config{Eps: p.eps, MinPts: mp})
		if err != nil {
			return nil, fmt.Errorf("reference at minPts %d: %w", mp, err)
		}
		b.refs[mp] = refOf(res)
	}
	return b, nil
}

// minPtsAll is the first run's minPts followed by the warm ones.
func (b *batch) minPtsAll() []int { return append([]int{b.p.minPts}, b.p.warm...) }

func (b *batch) minIterations() int { return 1 }
func (b *batch) maxIterations() int { return 0 }
func (b *batch) endPass(*ledger)    {}

func (b *batch) close() {
	if b.tgt != nil {
		b.tgt.close()
		b.tgt = nil
	}
}

// setup starts the server and warms it with one small session (a prefix of
// the points: create, run, delete), so the connection, code paths and heap
// are live before the first timed request.
func (b *batch) setup(l *ledger) error {
	b.close()
	b.iter = 0
	t0 := time.Now()
	tgt, err := startTarget(b.wrap)
	if err != nil {
		return err
	}
	b.tgt = tgt
	c := tgt.cl
	var info serve.SessionInfo
	req := serve.CreateSessionRequest{Kind: "batch", Eps: b.p.eps, Points: b.rows[:b.p.warmupN]}
	if _, err := c.call(l, "POST", "/v1/sessions", req, &info); !l.op(err) {
		return err
	}
	if _, _, err := c.runRequest(l, info.ID, b.p.minPts); !l.op(err) {
		return err
	}
	if _, err := c.call(l, "DELETE", "/v1/sessions/"+info.ID, nil, nil); !l.op(err) {
		return err
	}
	l.addDur("setup_s", time.Since(t0))
	return nil
}

// iteration is one session's life. Every result is checked against the
// in-process reference after its request has been timed.
func (b *batch) iteration(l *ledger) error {
	c := b.tgt.cl
	first := b.iter == 0
	b.iter++
	var base int64
	if first {
		base = liveHeap()
	}
	var flow flowSums
	var total time.Duration
	defer func() {
		l.addDur("iteration_s", total)
		flow.add(l)
	}()

	var info serve.SessionInfo
	req := serve.CreateSessionRequest{Kind: "batch", Eps: b.p.eps, Points: b.rows}
	rt, err := c.call(l, "POST", "/v1/sessions", req, &info)
	flow.include(rt)
	total += rt.total()
	if !l.op(err) {
		return nil
	}
	l.addDur("create_s", rt.wire)
	if l.traced {
		l.addDur("serve.create_s", rt.serve)
	}
	toFirst := rt.total()

	for i, mp := range b.minPtsAll() {
		st, rt, err := c.runRequest(l, info.ID, mp)
		flow.include(rt)
		total += rt.total()
		if !l.op(err) {
			continue
		}
		if i == 0 {
			l.addDur("first_result_s", toFirst+rt.total())
		} else {
			l.addDur("warm_op_s", rt.total())
		}
		if err := checkWire(b.refs[mp], b.grid, st.Result); err != nil {
			l.fail(fmt.Errorf("batch run at minPts %d: %w", mp, err))
		}
	}
	if first {
		l.add("resident_bytes", float64(liveHeap()-base))
	}
	rt, err = c.call(l, "DELETE", "/v1/sessions/"+info.ID, nil, nil)
	flow.include(rt)
	total += rt.total()
	l.op(err)
	return nil
}

// replay sends the same points through the calls the server makes: the
// Clusterer API, then the cell build, partition and sharded pipeline it runs
// underneath, each result checked like the wire ones.
func (b *batch) replay(l *ledger) error {
	var c *pdbscan.Clusterer
	d, err := clock(func() (err error) {
		c, err = pdbscan.NewClusterer(b.rows, b.p.eps)
		return err
	})
	if !l.op(err) {
		return err
	}
	l.addDur("pdbscan.new_clusterer_s", d)
	d, err = clock(func() error { return c.Prepare(pdbscan.Config{MinPts: b.p.minPts}) })
	if !l.op(err) {
		return err
	}
	l.addDur("pdbscan.prepare_s", d)
	for i, mp := range b.minPtsAll() {
		var res *pdbscan.Result
		d, err := clock(func() (err error) {
			res, err = c.Run(pdbscan.Config{MinPts: mp})
			return err
		})
		if !l.op(err) {
			return err
		}
		if i > 0 { // the first Run also cuts the shard partition
			l.addDur("pdbscan.run_s", d)
		}
		if err := checkResult(b.refs[mp], res); err != nil {
			l.fail(fmt.Errorf("replayed Run at minPts %d: %w", mp, err))
		}
	}
	shards := c.LastRunStats().Shards

	pool := parallel.NewPool(0)
	cells := replayGrid(l, pool, b.pts, b.p.eps)
	var part *grid.Partition
	d, err = clock(func() (err error) {
		part, err = grid.MakePartition(pool, cells, shards)
		return err
	})
	if !l.op(err) {
		return err
	}
	l.addDur("grid.partition_s", d)
	l.add("grid.shards", float64(part.NumShards))
	run := func(p core.Params) (*core.Result, error) {
		if part.NumShards <= 1 { // the Clusterer runs monolithic then too
			return core.Run(cells, p)
		}
		return core.RunSharded(cells, p, part)
	}
	arena := core.NewArena()
	for _, mp := range b.minPtsAll() {
		params := core.Params{MinPts: mp, Mark: core.MarkScan, Graph: core.GraphBCP, Exec: pool, Arena: arena}
		if err := replayCore(l, b.refs[mp], params, run, mp == b.p.minPts); err != nil {
			return err
		}
	}
	return nil
}

// rowsOf views a point set as coordinate rows (no copy).
func rowsOf(pts geom.Points) [][]float64 {
	rows := make([][]float64, pts.N)
	for i := range rows {
		rows[i] = pts.At(i)
	}
	return rows
}
