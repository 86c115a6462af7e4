package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pdbscan"
	"pdbscan/engine"
	"pdbscan/internal/benchreport"
)

// expServe measures the serving-path behavior recorded in BENCH_serve.json:
// cancellation latency mid-ClusterCore on an o.n-point run (the acceptance
// floor is measured at 1M), recovery equality, and Engine throughput under
// mixed concurrent jobs. cmd/benchgate gates the latency and the two boolean
// invariants (recovered_equal, budget_conformant).
func expServe(o options) {
	const eps, minPts = 1000.0, 100
	pts := loadDataset("ss-varden-2d", o.n, o.seed)
	rep := benchreport.New("serve", effectiveThreads(o.threads), map[string]any{
		"dataset": "ss-varden-2d", "n": pts.N, "seed": o.seed, "eps": eps, "min_pts": minPts,
	})
	cfg := pdbscan.Config{MinPts: minPts, Workers: o.threads}

	c, err := pdbscan.NewClustererFlat(pts.Data, pts.D, eps)
	if err != nil {
		fatalf("serve: %v", err)
	}
	if err := c.Prepare(pdbscan.Config{Workers: o.threads}); err != nil {
		fatalf("serve: %v", err)
	}
	baseline, err := c.Run(cfg)
	if err != nil {
		fatalf("serve: %v", err)
	}
	stats := c.LastRunStats()
	fmt.Printf("baseline monolithic run: total %v (mark %v, cluster %v, border %v)\n",
		stats.Total.Round(time.Millisecond), stats.MarkCore.Round(time.Millisecond),
		stats.ClusterCore.Round(time.Millisecond), stats.Border.Round(time.Millisecond))

	// Cancellation latency: cancel each trial midway into ClusterCore (after
	// the baseline's MarkCore duration plus half its ClusterCore duration)
	// and measure cancel -> return (context.Canceled). recovered: after
	// every cancelled run, the very next uncancelled RunContext on the same
	// Clusterer was label-permutation-equal to the monolithic baseline.
	var trialsNS []int64
	recovered := true
	cancelAt := stats.MarkCore + stats.ClusterCore/2
	const trials = 5
	tbl := newTable(fmt.Sprintf("cancellation latency: n=%d, cancel at +%v (mid-ClusterCore)", pts.N, cancelAt.Round(time.Millisecond)),
		"trial", "outcome", "latency", "recovered equal")
	for trial := 0; trial < trials; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan time.Time, 1)
		timer := time.AfterFunc(cancelAt, func() {
			cancelled <- time.Now()
			cancel()
		})
		_, rerr := c.RunContext(ctx, cfg)
		ret := time.Now()
		timer.Stop()
		cancel()
		outcome := "completed before cancel"
		latency := time.Duration(0)
		if rerr != nil {
			if !errors.Is(rerr, context.Canceled) {
				fatalf("serve: cancelled run returned %v, want context.Canceled", rerr)
			}
			outcome = "context.Canceled"
			latency = ret.Sub(<-cancelled)
			trialsNS = append(trialsNS, latency.Nanoseconds())
		}
		// The very next uncancelled run must match the baseline exactly.
		next, err := c.RunContext(context.Background(), cfg)
		if err != nil {
			fatalf("serve: run after cancel: %v", err)
		}
		equal := permutationEqual(next, baseline)
		recovered = recovered && equal
		tbl.add(fmt.Sprint(trial), outcome, latency.Round(time.Microsecond).String(), fmt.Sprint(equal))
	}
	tbl.print()
	rep.Metrics["recovered_equal"] = benchreport.Bool(recovered)
	rep.Metrics["cancelled_mid_cluster"] = float64(len(trialsNS))
	rep.Rows["cancel_trials_ns"] = trialsNS
	var p50, maxNS int64
	if len(trialsNS) > 0 {
		sorted := append([]int64(nil), trialsNS...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		p50, maxNS = sorted[len(sorted)/2], sorted[len(sorted)-1]
		fmt.Printf("\ncancel latency: p50 %v, max %v over %d mid-run cancellations (floor: 50ms)\n",
			time.Duration(p50).Round(time.Microsecond),
			time.Duration(maxNS).Round(time.Microsecond), len(trialsNS))
	} else {
		fmt.Println("\nno trial was cancelled mid-run (dataset too small for the cancel point)")
	}
	rep.Metrics["cancel_latency_p50_ns"] = float64(p50)
	rep.Metrics["cancel_latency_max_ns"] = float64(maxNS)

	runEngineThroughput(o, rep)
	writeReport(o, rep)
}

// runEngineThroughput pushes mixed concurrent jobs (batch sweeps with
// distinct Workers caps, streaming ticks, and deadline-bounded jobs) through
// one Engine and records throughput and budget conformance (the sampled
// WorkersInUse never exceeded the budget).
func runEngineThroughput(o options, rep *benchreport.Report) {
	budget := rep.Host.Threads
	e := engine.New(engine.Options{Budget: budget, MaxQueue: 256})
	defer e.Close()
	var jobsTotal, completed, cancelled int

	// Job targets: three batch clusterers and a streaming window, each a
	// tenth of the headline size.
	n := o.n / 10
	if n < 5000 {
		n = 5000
	}
	const eps, minPts = 1000.0, 100
	var clusterers []*pdbscan.Clusterer
	for i := 0; i < 3; i++ {
		pts := loadDataset("ss-varden-2d", n, o.seed+int64(i))
		c, err := pdbscan.NewClustererFlat(pts.Data, pts.D, eps)
		if err != nil {
			fatalf("serve: %v", err)
		}
		if err := c.Prepare(pdbscan.Config{Workers: o.threads}); err != nil {
			fatalf("serve: %v", err)
		}
		clusterers = append(clusterers, c)
	}
	s, err := pdbscan.NewStreamingClusterer(2, eps)
	if err != nil {
		fatalf("serve: %v", err)
	}
	spts := loadDataset("ss-varden-2d", n, o.seed+9)
	if _, err := s.InsertFlat(spts.Data); err != nil {
		fatalf("serve: %v", err)
	}

	// Budget-conformance sampler.
	stop := make(chan struct{})
	var maxInUse, violated atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			if int64(st.WorkersInUse) > maxInUse.Load() {
				maxInUse.Store(int64(st.WorkersInUse))
			}
			if st.WorkersInUse > st.Budget {
				violated.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const rounds = 4
	start := time.Now()
	var jobs []*engine.Job
	ctxs := []context.CancelFunc{}
	for r := 0; r < rounds; r++ {
		// A MinPts sweep across the batch clusterers, distinct Workers caps.
		for i, c := range clusterers {
			cfg := pdbscan.Config{MinPts: minPts * (1 + i), Workers: 1 + (r+i)%budget}
			j, err := e.Submit(context.Background(), engine.Request{Clusterer: c, Config: cfg, Priority: i})
			if err != nil {
				fatalf("serve: submit: %v", err)
			}
			jobs = append(jobs, j)
		}
		// A streaming tick.
		j, err := e.Submit(context.Background(), engine.Request{Streaming: s, Config: pdbscan.Config{MinPts: minPts, Workers: 1 + r%budget}})
		if err != nil {
			fatalf("serve: submit streaming: %v", err)
		}
		jobs = append(jobs, j)
		// A deadline job designed to be cancelled mid-run. On a loaded host
		// the deadline can even expire before Submit's context check — that
		// is the job's designed outcome, not a failure.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		ctxs = append(ctxs, cancel)
		j, err = e.Submit(ctx, engine.Request{Clusterer: clusterers[0], Config: pdbscan.Config{MinPts: minPts, Workers: budget}})
		switch {
		case err == nil:
			jobs = append(jobs, j)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			cancelled++
			jobsTotal++ // never entered the jobs slice; count it here
		default:
			fatalf("serve: submit deadline job: %v", err)
		}
	}
	for _, j := range jobs {
		err := j.Err()
		switch {
		case err == nil:
			completed++
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			cancelled++
		default:
			fatalf("serve: engine job failed: %v", err)
		}
	}
	wall := time.Since(start)
	close(stop)
	for _, cancel := range ctxs {
		cancel()
	}
	// jobsTotal already counts deadline jobs rejected at Submit; keep the
	// throughput figure on the same population so the report reconciles.
	jobsTotal += len(jobs)
	jobsPerSec := float64(jobsTotal) / wall.Seconds()
	conformant := violated.Load() == 0
	m := rep.Metrics
	m["engine_budget"] = float64(budget)
	m["engine_jobs"] = float64(jobsTotal)
	m["engine_completed"] = float64(completed)
	m["engine_cancelled"] = float64(cancelled)
	m["engine_wall_ns"] = float64(wall.Nanoseconds())
	m["engine_jobs_per_sec"] = jobsPerSec
	m["engine_max_workers_in_use"] = float64(maxInUse.Load())
	m["budget_conformant"] = benchreport.Bool(conformant)
	fmt.Printf("\nengine: %d mixed jobs (%d completed, %d deadline-cancelled) in %v -> %.1f jobs/s; budget %d, max in use %d, conformant %v\n",
		jobsTotal, completed, cancelled, wall.Round(time.Millisecond), jobsPerSec,
		budget, maxInUse.Load(), conformant)
}

// permutationEqual reports label-permutation equality of two results (core
// flags exact, labels up to a cluster-id bijection).
func permutationEqual(a, b *pdbscan.Result) bool {
	if a.NumClusters != b.NumClusters || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Core {
		if a.Core[i] != b.Core[i] {
			return false
		}
	}
	fwd := make(map[int32]int32, a.NumClusters)
	rev := make(map[int32]int32, a.NumClusters)
	for i := range a.Labels {
		x, y := a.Labels[i], b.Labels[i]
		if (x < 0) != (y < 0) {
			return false
		}
		if x < 0 {
			continue
		}
		if v, ok := fwd[x]; ok && v != y {
			return false
		}
		if v, ok := rev[y]; ok && v != x {
			return false
		}
		fwd[x], rev[y] = y, x
	}
	return true
}
