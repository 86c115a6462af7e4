package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdbscan/engine"
	"pdbscan/internal/benchreport"
	"pdbscan/internal/geom"
	"pdbscan/serve"
)

// apiLoad is the shared client state of the load run: one pooled HTTP client
// plus the latency/outcome accumulators every session goroutine feeds.
type apiLoad struct {
	base       string
	c          *http.Client
	retrySleep time.Duration

	requests     atomic.Int64
	resp429      atomic.Int64
	errOther     atomic.Int64
	runsDone     atomic.Int64
	missingRetry atomic.Int64 // 429/503 responses without Retry-After

	mu        sync.Mutex
	latencies []int64
	queueNS   []int64
}

// do issues one JSON request, retrying on 429/503 after the advertised
// Retry-After. Every attempt's end-to-end latency is recorded. Responses
// outside {2xx, 429, 503} count as errOther and return an error.
func (l *apiLoad) do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, l.base+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := l.c.Do(req)
		lat := time.Since(t0).Nanoseconds()
		l.requests.Add(1)
		if err != nil {
			l.errOther.Add(1)
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		l.mu.Lock()
		l.latencies = append(l.latencies, lat)
		l.mu.Unlock()

		switch {
		case resp.StatusCode < 300:
			if out != nil {
				return json.Unmarshal(raw, out)
			}
			return nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if resp.StatusCode == http.StatusTooManyRequests {
				l.resp429.Add(1)
			}
			sleep := l.retrySleep
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				l.missingRetry.Add(1)
			} else if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				sleep = time.Duration(secs) * time.Second
			}
			if attempt > 120 {
				l.errOther.Add(1)
				return fmt.Errorf("%s %s: still %d after %d attempts", method, path, resp.StatusCode, attempt)
			}
			time.Sleep(sleep)
		default:
			l.errOther.Add(1)
			return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
		}
	}
}

// run submits one wait=true run and folds its result into the accumulators.
func (l *apiLoad) run(sessID string, req serve.SubmitRunRequest) error {
	var st serve.RunStatus
	if err := l.do("POST", "/v1/sessions/"+sessID+"/runs", req, &st); err != nil {
		return err
	}
	if st.State != "done" {
		l.errOther.Add(1)
		return fmt.Errorf("run on %s: state %q (%s)", sessID, st.State, st.Error)
	}
	l.runsDone.Add(1)
	if st.Stats != nil {
		l.mu.Lock()
		l.queueNS = append(l.queueNS, st.Stats.QueuedNS)
		l.mu.Unlock()
	}
	return nil
}

func rowsOf(pts geom.Points) [][]float64 {
	rows := make([][]float64, pts.N)
	for i := 0; i < pts.N; i++ {
		rows[i] = pts.Data[i*pts.D : (i+1)*pts.D]
	}
	return rows
}

func apiPct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// expAPI drives the dbscand serving stack (package serve over a real TCP
// listener) with hundreds of concurrent sessions — a third each batch,
// streaming, and hierarchy — over one shared worker budget, and records
// BENCH_api.json. The queue is sized well below the offered concurrency so
// organic 429 backpressure is part of the measured behavior, not an error.
func expAPI(o options) {
	threads := effectiveThreads(o.threads)
	const sessions = 200
	const maxQueue = 64
	const eps = 1000.0
	perSession := o.n / sessions
	if perSession < 200 {
		perSession = 200
	}
	if perSession > 5000 {
		perSession = 5000
	}

	srv := serve.New(serve.Options{
		Engine:      engine.Options{Budget: threads, MaxQueue: maxQueue},
		MaxSessions: sessions + 8,
		RetryAfter:  time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("api: listen: %v", err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)

	load := &apiLoad{
		base: "http://" + ln.Addr().String(),
		c: &http.Client{
			Transport: &http.Transport{MaxIdleConns: sessions + 16, MaxIdleConnsPerHost: sessions + 16},
			Timeout:   5 * time.Minute,
		},
		retrySleep: 250 * time.Millisecond,
	}
	budget := srv.Engine().Budget()
	rep := benchreport.New("api", threads, map[string]any{
		"dataset": "ss-varden-2d", "n": o.n, "seed": o.seed,
		"points_per_session": perSession, "budget": budget, "max_queue": maxQueue,
	})
	fmt.Printf("api: %d concurrent sessions x %d points on %s (budget %d, queue %d)\n",
		sessions, perSession, load.base, budget, maxQueue)

	// Budget-conformance sampler, same cadence as the serve experiment.
	stop := make(chan struct{})
	var maxInUse, violated atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Engine().Stats()
			if int64(st.WorkersInUse) > maxInUse.Load() {
				maxInUse.Store(int64(st.WorkersInUse))
			}
			if st.WorkersInUse > st.Budget {
				violated.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Two phases behind a barrier: every session is created first, then all
	// of them fire their first run in one volley. 200 simultaneous wait-runs
	// against a 64-slot queue guarantees the 429 backpressure path is part of
	// the measured workload rather than a lucky scheduling accident.
	start := time.Now()
	var wg, created sync.WaitGroup
	created.Add(sessions)
	gate := make(chan struct{})
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows := rowsOf(loadDataset("ss-varden-2d", perSession, o.seed+int64(i)))
			prio := i % 4
			var err error
			switch i % 3 {
			case 0: // batch: create once, sweep minPts.
				var info serve.SessionInfo
				err = load.do("POST", "/v1/sessions",
					serve.CreateSessionRequest{Kind: "batch", Eps: eps, Points: rows}, &info)
				created.Done()
				<-gate
				if err != nil {
					break
				}
				for _, mp := range []int{10, 50, 100} {
					if err = load.run(info.ID, serve.SubmitRunRequest{
						Config: serve.ConfigJSON{MinPts: mp}, Priority: prio, DeadlineMillis: 120000, Wait: true,
					}); err != nil {
						break
					}
				}
			case 1: // streaming: insert, tick, insert, shrink window, tick.
				var info serve.SessionInfo
				err = load.do("POST", "/v1/sessions",
					serve.CreateSessionRequest{Kind: "streaming", Eps: eps, Dims: 2}, &info)
				created.Done()
				<-gate
				if err != nil {
					break
				}
				half := len(rows) / 2
				path := "/v1/sessions/" + info.ID
				if err = load.do("POST", path+"/points", serve.InsertPointsRequest{Points: rows[:half]}, nil); err != nil {
					break
				}
				if err = load.run(info.ID, serve.SubmitRunRequest{
					Config: serve.ConfigJSON{MinPts: 10}, Priority: prio, DeadlineMillis: 120000, Wait: true,
				}); err != nil {
					break
				}
				if err = load.do("POST", path+"/points", serve.InsertPointsRequest{Points: rows[half:]}, nil); err != nil {
					break
				}
				if err = load.do("POST", path+"/window", serve.WindowRequest{N: 3 * len(rows) / 4}, nil); err != nil {
					break
				}
				err = load.run(info.ID, serve.SubmitRunRequest{
					Config: serve.ConfigJSON{MinPts: 10}, Priority: prio, DeadlineMillis: 120000, Wait: true,
				})
			case 2: // hierarchy: one build, three eps cuts.
				var info serve.SessionInfo
				err = load.do("POST", "/v1/sessions",
					serve.CreateSessionRequest{Kind: "hierarchy", Eps: eps, MinPts: 10, Points: rows}, &info)
				created.Done()
				<-gate
				if err != nil {
					break
				}
				for _, cut := range []float64{eps / 4, eps / 2, eps} {
					if err = load.run(info.ID, serve.SubmitRunRequest{
						Config: serve.ConfigJSON{Eps: cut}, Priority: prio, DeadlineMillis: 120000, Wait: true,
					}); err != nil {
						break
					}
				}
			}
			if err != nil {
				errc <- fmt.Errorf("session %d: %w", i, err)
			}
		}(i)
	}
	created.Wait()
	close(gate)
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	close(errc)
	for err := range errc {
		fmt.Printf("api: ERROR %v\n", err)
	}

	// Drain in the documented order and confirm it completes: every
	// in-flight request answered through Drain -> Shutdown -> Close.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := hs.Shutdown(ctx) == nil
	srv.Close()

	// Requests counts HTTP attempts, retries included; errors_other counts
	// responses outside {2xx, 429, 503}, which must be zero. Latency is the
	// client-measured end-to-end time per attempt, queue wait the server's
	// stats.queued_ns per completed run.
	requests, resp429 := load.requests.Load(), load.resp429.Load()
	var rate429 float64
	if requests > 0 {
		rate429 = float64(resp429) / float64(requests)
	}
	retryAfterAlways := load.missingRetry.Load() == 0
	conformant := violated.Load() == 0
	reqPerSec := float64(requests) / wall.Seconds()
	sort.Slice(load.latencies, func(i, j int) bool { return load.latencies[i] < load.latencies[j] })
	sort.Slice(load.queueNS, func(i, j int) bool { return load.queueNS[i] < load.queueNS[j] })
	rep.Metrics = map[string]float64{
		"sessions":           sessions,
		"requests":           float64(requests),
		"runs_completed":     float64(load.runsDone.Load()),
		"responses_429":      float64(resp429),
		"rate_429":           rate429,
		"retry_after_always": benchreport.Bool(retryAfterAlways),
		"errors_other":       float64(load.errOther.Load()),
		"latency_p50_ns":     float64(apiPct(load.latencies, 0.50)),
		"latency_p90_ns":     float64(apiPct(load.latencies, 0.90)),
		"latency_p99_ns":     float64(apiPct(load.latencies, 0.99)),
		"latency_max_ns":     float64(apiPct(load.latencies, 1)),
		"queue_p50_ns":       float64(apiPct(load.queueNS, 0.50)),
		"queue_p99_ns":       float64(apiPct(load.queueNS, 0.99)),
		"wall_ns":            float64(wall.Nanoseconds()),
		"req_per_sec":        reqPerSec,
		"max_workers_in_use": float64(maxInUse.Load()),
		"budget_conformant":  benchreport.Bool(conformant),
		"drained_cleanly":    benchreport.Bool(drained),
	}
	m := rep.Metrics

	dur := func(name string) string {
		return time.Duration(m[name]).Round(time.Microsecond).String()
	}
	tbl := newTable(fmt.Sprintf("API load: %d sessions, %d requests in %v", sessions, requests, wall.Round(time.Millisecond)),
		"metric", "value")
	tbl.add("runs completed", fmt.Sprint(m["runs_completed"]))
	tbl.add("requests/s", fmt.Sprintf("%.1f", reqPerSec))
	tbl.add("429 rate", fmt.Sprintf("%.1f%% (%d)", 100*rate429, resp429))
	tbl.add("Retry-After on every 429/503", fmt.Sprint(retryAfterAlways))
	tbl.add("other errors", fmt.Sprint(m["errors_other"]))
	tbl.add("e2e latency p50/p90/p99", dur("latency_p50_ns")+" / "+dur("latency_p90_ns")+" / "+dur("latency_p99_ns"))
	tbl.add("queue wait p50/p99", dur("queue_p50_ns")+" / "+dur("queue_p99_ns"))
	tbl.add("budget / max in use / conformant", fmt.Sprintf("%d / %d / %v", budget, maxInUse.Load(), conformant))
	tbl.add("drained cleanly", fmt.Sprint(drained))
	tbl.print()

	writeReport(o, rep)
}
