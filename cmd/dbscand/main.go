// Command dbscand serves pdbscan over HTTP: a session-oriented JSON API
// (package serve) in front of the job-scheduling engine. Clients create
// sessions holding a Clusterer, StreamingClusterer, or prebuilt Hierarchy,
// then submit batch runs, streaming inserts/ticks, and eps-cut queries as
// jobs with per-request priority and deadline; backpressure from the bounded
// admission queue surfaces as 429s with Retry-After, and GET /metrics exposes
// Prometheus-style scheduler and latency telemetry.
//
// Usage:
//
//	dbscand [-addr :8080] [-budget 0] [-max-queue 64] [-queue-timeout 0]
//	        [-max-sessions 4096] [-retry-after 1s] [-snapshot-dir DIR]
//	        [-pprof ADDR]
//
// With -pprof set (e.g. -pprof localhost:6060), the net/http/pprof profiling
// endpoints are served on that address from a second listener, never on the
// API address — profiling stays off the public surface and off by default.
//
// With -snapshot-dir set, streaming sessions survive restarts: on drain every
// streaming session's warm state (points, ids, incremental caches, pending
// mutations) is written to DIR as a checksummed <session-id>.snap, and on
// boot those files are restored under their original session ids — clients
// resume with the URLs and point ids they had, and the first tick after the
// restart costs what it would have cost without one.
//
// A quick session through curl:
//
//	dbscand -addr :8080 &
//	curl -s localhost:8080/v1/sessions -d '{"kind":"batch","eps":10,"points":[[0,0],[1,1],[2,0],[50,50],[51,50],[50,51]]}'
//	curl -s localhost:8080/v1/sessions/s1/runs -d '{"config":{"min_pts":3},"wait":true}'
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the server drains gracefully, in order: admission stops
// (new mutating requests get 503 + Retry-After), the HTTP server shuts down
// (in-flight handlers, including wait=true runs, finish), and only then the
// engine closes (running jobs complete; still-queued async jobs settle with
// ErrClosed and report 503 on fetch).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdbscan/engine"
	"pdbscan/serve"
)

// Slow-client bounds of the API listener: a client has readHeaderTimeout to
// send its request line and headers (a slowloris connection trickling
// header bytes is closed), and a keep-alive connection idle for idleTimeout
// is closed. Bodies and responses stay unbounded on purpose — a body can be
// a large point set, and a wait=true response lasts as long as its run.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newAPIServer builds the API listener's http.Server with the slow-client
// bounds.
func newAPIServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	budget := flag.Int("budget", 0, "total worker budget shared by all jobs (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", engine.DefaultMaxQueue, "admission queue bound; submissions beyond it get 429")
	queueTimeout := flag.Duration("queue-timeout", 0, "max queue wait before a job is rejected with 504 (0 = none)")
	maxSessions := flag.Int("max-sessions", serve.DefaultMaxSessions, "live session bound; creates beyond it get 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to 429/503 responses")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	snapshotDir := flag.String("snapshot-dir", "", "directory for streaming-session snapshots: restored on boot, saved on drain (\"\" = disabled)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 (\"\" = disabled)")
	flag.Parse()

	srv := serve.New(serve.Options{
		Engine: engine.Options{
			Budget:       *budget,
			MaxQueue:     *maxQueue,
			QueueTimeout: *queueTimeout,
		},
		MaxSessions: *maxSessions,
		RetryAfter:  *retryAfter,
	})
	if *snapshotDir != "" {
		srv.SetSnapshotDir(*snapshotDir)
		n, err := srv.RestoreSnapshots()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbscand: restoring snapshots: %v\n", err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "dbscand: restored %d streaming session(s) from %s\n", n, *snapshotDir)
		}
	}
	hs := newAPIServer(*addr, srv)

	var ps *http.Server
	if *pprofAddr != "" {
		// Profiling lives on its own listener with an explicit mux: the API
		// handler never routes to it, and nothing is registered on the
		// DefaultServeMux. A failure here is reported but does not take the
		// API down — profiling is an operator convenience, not a dependency.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps = &http.Server{Addr: *pprofAddr, Handler: mux}
		go func() {
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "dbscand: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "dbscand: pprof on %s/debug/pprof/\n", *pprofAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dbscand: listening on %s (budget %d, queue %d)\n",
		*addr, srv.Engine().Budget(), *maxQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "dbscand: %v\n", err)
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "dbscand: %v, draining\n", got)
	}

	// Drain in order: stop admission, let in-flight handlers finish, then
	// close the engine under no HTTP traffic.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dbscand: shutdown: %v\n", err)
	}
	if ps != nil {
		_ = ps.Shutdown(ctx)
	}
	srv.Close()
	if *snapshotDir != "" {
		// After Close: no handler is mid-mutation, every job has settled, so
		// the snapshots capture quiescent session state.
		n, err := srv.SaveSnapshots()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbscand: saving snapshots: %v\n", err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "dbscand: saved %d streaming session(s) to %s\n", n, *snapshotDir)
		}
	}
	fmt.Fprintln(os.Stderr, "dbscand: drained")
}
