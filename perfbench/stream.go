package main

import (
	"fmt"
	"net/http"
	"time"

	"pdbscan"
	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
	"pdbscan/serve"
)

// streamParams sizes stream-http-2d.
type streamParams struct {
	window   int // points kept in the session's window
	batch    int // new points per tick
	eps      float64
	minPts   int
	minTicks int // the tick p90 needs at least 100 samples
	maxTicks int // ticks one pass may run; the stream holds this many
}

var streamDefaults = streamParams{window: 100000, batch: 1000, eps: 4, minPts: 10, minTicks: 100, maxTicks: 600}

// stream is the stream-http-2d workload: a streaming session over a
// time-ordered drift stream. Set-up loads the first window and runs it
// once; each tick then inserts the next batch, evicts down to the window and
// runs incrementally. Point ids equal stream positions: the server assigns
// them in insertion order from 0, and each insert's ids are checked.
type stream struct {
	p    streamParams
	pts  geom.Points
	wrap func(http.Handler) http.Handler
	tgt  *target
	sess string
	next int   // stream position of the next point to insert
	base int64 // live heap before the session existed
	iter int   // ticks since the last set-up

	first, last *serve.ResultJSON // the pass's first and last tick results (nil: none yet)
	lastRef     *metrics.BruteResult
}

func newStream(p streamParams, seed int64) (*stream, error) {
	pts, err := dataset.Generate("drift-2d", p.window+p.maxTicks*p.batch, seed)
	if err != nil {
		return nil, err
	}
	return &stream{p: p, pts: pts}, nil
}

func (s *stream) minIterations() int { return s.p.minTicks }
func (s *stream) maxIterations() int { return s.p.maxTicks }

func (s *stream) close() {
	if s.tgt != nil {
		s.tgt.close()
		s.tgt = nil
	}
}

func (s *stream) path(suffix string) string { return "/v1/sessions/" + s.sess + suffix }

// insert posts stream points [lo, hi) and checks the ids they were given.
func (s *stream) insert(l *ledger, lo, hi int) (roundTrip, error) {
	var out struct {
		IDs []int64 `json:"ids"`
	}
	rt, err := s.tgt.cl.call(l, "POST", s.path("/points"), serve.InsertPointsRequest{Points: rowsOf(s.span(lo, hi))}, &out)
	if err != nil {
		return rt, err
	}
	if len(out.IDs) != hi-lo || (hi > lo && (out.IDs[0] != int64(lo) || out.IDs[len(out.IDs)-1] != int64(hi-1))) {
		return rt, fmt.Errorf("insert of stream points [%d, %d) returned %d ids not numbered from %d", lo, hi, len(out.IDs), lo)
	}
	return rt, nil
}

// span is stream points [lo, hi) as a point set (no copy).
func (s *stream) span(lo, hi int) geom.Points {
	return geom.Points{N: hi - lo, D: s.pts.D, Data: s.pts.Data[lo*s.pts.D : hi*s.pts.D]}
}

// setup starts the server, creates the streaming session, loads the first
// window and runs it once; the load and the run are first_result_s.
func (s *stream) setup(l *ledger) error {
	s.close()
	s.next, s.iter = 0, 0
	s.base = liveHeap()
	t0 := time.Now()
	tgt, err := startTarget(s.wrap)
	if err != nil {
		return err
	}
	s.tgt = tgt
	var info serve.SessionInfo
	req := serve.CreateSessionRequest{Kind: "streaming", Eps: s.p.eps, Dims: s.pts.D}
	if _, err := tgt.cl.call(l, "POST", "/v1/sessions", req, &info); !l.op(err) {
		return err
	}
	s.sess = info.ID
	rt, err := s.insert(l, 0, s.p.window)
	if !l.op(err) {
		return err
	}
	_, rrt, err := tgt.cl.runRequest(l, s.sess, s.p.minPts)
	if !l.op(err) {
		return err
	}
	s.next = s.p.window
	l.addDur("first_result_s", rt.total()+rrt.total())
	l.addDur("setup_s", time.Since(t0))
	return nil
}

// iteration is one tick: insert a batch, evict to the window, run.
func (s *stream) iteration(l *ledger) error {
	c := s.tgt.cl
	if s.iter == 0 {
		l.add("resident_bytes", float64(liveHeap()-s.base))
	}
	s.iter++
	var flow flowSums
	lo, hi := s.next, s.next+s.p.batch
	s.next = hi

	rt, err := s.insert(l, lo, hi)
	flow.include(rt)
	tick := rt.total()
	if l.op(err) && l.traced {
		l.addDur("serve.insert_s", rt.serve)
	}
	rt, err = c.call(l, "POST", s.path("/window"), serve.WindowRequest{N: s.p.window}, nil)
	flow.include(rt)
	tick += rt.total()
	if l.op(err) && l.traced {
		l.addDur("serve.window_s", rt.serve)
	}
	st, rt, err := c.runRequest(l, s.sess, s.p.minPts)
	flow.include(rt)
	tick += rt.total()
	if l.op(err) {
		l.addDur("warm_op_s", rt.total())
		s.last = st.Result
		if s.first == nil {
			s.first = st.Result
			if _, err := s.checkTick(st.Result); err != nil {
				l.fail(fmt.Errorf("first tick: %w", err))
			}
		}
	}
	l.addDur("iteration_s", tick)
	flow.add(l)
	return nil
}

// endPass checks the pass's last tick (the first was checked when it came)
// and forgets both for the next pass.
func (s *stream) endPass(l *ledger) {
	if s.last != nil && s.last != s.first {
		ref, err := s.checkTick(s.last)
		if err != nil {
			l.fail(fmt.Errorf("last tick: %w", err))
		}
		s.lastRef = ref
	}
	s.first, s.last = nil, nil
}

// checkTick checks that a tick's result covers exactly the current window,
// and matches a from-scratch pdbscan.Cluster of that window's points; it
// returns the reference.
func (s *stream) checkTick(r *serve.ResultJSON) (*metrics.BruteResult, error) {
	lo := s.next - s.p.window
	if len(r.IDs) != s.p.window {
		return nil, fmt.Errorf("%d ids in the result, want the %d-point window", len(r.IDs), s.p.window)
	}
	for k, id := range r.IDs {
		if id != int64(lo+k) {
			return nil, fmt.Errorf("row %d has id %d, want %d", k, id, lo+k)
		}
	}
	win := s.span(lo, s.next)
	res, err := pdbscan.Cluster(rowsOf(win), pdbscan.Config{Eps: s.p.eps, MinPts: s.p.minPts})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	g, err := newPointGrid(win.Data, win.D, s.p.eps)
	if err != nil {
		return nil, err
	}
	ref := refOf(res)
	return ref, checkWire(ref, g, r)
}

// replay sends the ticks of the traced pass's last round through an
// in-process StreamingClusterer, timing its Insert, Window and Run.
func (s *stream) replay(l *ledger) error {
	sc, err := pdbscan.NewStreamingClusterer(s.pts.D, s.p.eps)
	if !l.op(err) {
		return err
	}
	cfg := pdbscan.Config{MinPts: s.p.minPts}
	if _, err := sc.InsertFlat(s.span(0, s.p.window).Data); !l.op(err) {
		return err
	}
	if _, err := sc.Run(cfg); !l.op(err) {
		return err
	}
	full := 0
	var res *pdbscan.StreamResult
	for t := 0; t < s.iter; t++ {
		lo := s.p.window + t*s.p.batch
		d, err := clock(func() error {
			_, err := sc.InsertFlat(s.span(lo, lo+s.p.batch).Data)
			return err
		})
		if !l.op(err) {
			return err
		}
		l.addDur("pdbscan.stream_insert_s", d)
		d, _ = clock(func() error {
			sc.Window(s.p.window)
			return nil
		})
		l.addDur("pdbscan.stream_window_s", d)
		d, err = clock(func() (err error) {
			res, err = sc.Run(cfg)
			return err
		})
		if !l.op(err) {
			return err
		}
		l.addDur("pdbscan.stream_run_s", d)
		st := sc.LastRunStats()
		l.add("pdbscan.stream_dirty_cells", float64(st.DirtyCells))
		l.add("pdbscan.stream_cells", float64(st.NumCells))
		if st.Full {
			full++
		}
	}
	l.add("pdbscan.stream_full_ticks", float64(full))
	if res != nil && s.lastRef != nil {
		if err := checkResult(s.lastRef, &res.Result); err != nil {
			l.fail(fmt.Errorf("replayed last tick: %w", err))
		}
	}
	return nil
}
