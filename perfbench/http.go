package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pdbscan/serve"
)

// requestIDHeader carries a traced request's id from the client to the
// server-side wrapper, so the two ends of one request share an identifier.
const requestIDHeader = "X-Perfbench-Request"

// serveTimer wraps serve.Server.ServeHTTP and records how long the handler
// ran for every request that carries a request id (traced requests only).
type serveTimer struct {
	h  http.Handler
	mu sync.Mutex
	by map[string]time.Duration
}

func (t *serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestIDHeader)
	if id == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	t.mu.Lock()
	t.by[id] = d
	t.mu.Unlock()
}

// take returns and forgets the handler time of request id.
func (t *serveTimer) take(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.by[id]
	delete(t.by, id)
	return d, ok
}

// target is a serve.Server on a loopback listener plus the one client
// connection that drives it.
type target struct {
	srv   *serve.Server
	hs    *http.Server
	timer *serveTimer
	done  chan struct{} // closed when hs.Serve has returned
	cl    *client
}

// startTarget starts a default serve.Server (engine budget = GOMAXPROCS) on
// 127.0.0.1. wrap, when non-nil, wraps the handler (the self-tests use it to
// inject faults).
func startTarget(wrap func(http.Handler) http.Handler) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Options{})
	timer := &serveTimer{h: srv, by: map[string]time.Duration{}}
	var h http.Handler = timer
	if wrap != nil {
		h = wrap(h)
	}
	t := &target{srv: srv, hs: &http.Server{Handler: h}, timer: timer, done: make(chan struct{})}
	go func() {
		defer close(t.done)
		_ = t.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	t.cl = &client{
		base:  "http://" + ln.Addr().String(),
		timer: timer,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	return t, nil
}

// close stops the listener, the connection and the engine, and waits for the
// serving goroutine to return.
func (t *target) close() {
	t.cl.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := t.hs.Shutdown(ctx); err != nil {
		_ = t.hs.Close() // shutdown timed out; drop the connections
	}
	<-t.done
	t.srv.Close()
}

// client issues JSON requests over one keep-alive connection.
type client struct {
	base   string
	hc     *http.Client
	timer  *serveTimer
	nextID uint64
}

// roundTrip is one request's cost, split at the layer boundaries the client
// can see.
type roundTrip struct {
	encode, wire, decode time.Duration // wire: send, server, and reading the body
	reqBytes, respBytes  int
	serve                time.Duration // traced only: the server's ServeHTTP time
}

func (r roundTrip) total() time.Duration { return r.encode + r.wire + r.decode }

// call sends body (nil for none) as JSON and decodes a 2xx response into out
// (nil to discard it). A non-2xx status is an error. In a traced pass (l
// traced) it also records the client-side layer samples and fetches the
// server's handler time.
func (c *client) call(l *ledger, method, path string, body, out any) (roundTrip, error) {
	var rt roundTrip
	var payload []byte
	m := l.memStart()
	defer l.memEnd(m)
	t0 := time.Now()
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return rt, fmt.Errorf("%s %s: encode: %w", method, path, err)
		}
	}
	t1 := time.Now()
	rt.encode = t1.Sub(t0)
	rt.reqBytes = len(payload)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return rt, err
	}
	var id string
	if l.traced {
		c.nextID++
		id = strconv.FormatUint(c.nextID, 10)
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return rt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	rt.wire = t2.Sub(t1)
	rt.respBytes = len(raw)
	if err != nil {
		return rt, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return rt, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return rt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	rt.decode = time.Since(t2)
	if l.traced {
		rt.serve, _ = c.timer.take(id)
	}
	return rt, nil
}

// flowSums adds up the client-side cost of one iteration's requests; add
// records them as one client.* sample each.
type flowSums struct {
	encode, decode      time.Duration
	reqBytes, respBytes int
}

func (f *flowSums) include(rt roundTrip) {
	f.encode += rt.encode
	f.decode += rt.decode
	f.reqBytes += rt.reqBytes
	f.respBytes += rt.respBytes
}

func (f *flowSums) add(l *ledger) {
	if !l.traced {
		return
	}
	l.addDur("client.encode_s", f.encode)
	l.addDur("client.decode_s", f.decode)
	l.add("client.request_bytes", float64(f.reqBytes))
	l.add("client.response_bytes", float64(f.respBytes))
}

// runRequest submits one wait:true run and returns its settled status. A run
// that did not finish as done is an error. In a traced pass it records the
// engine's queue and run times and the serve layer's time around them.
func (c *client) runRequest(l *ledger, sessID string, minPts int) (*serve.RunStatus, roundTrip, error) {
	var st serve.RunStatus
	req := serve.SubmitRunRequest{Config: serve.ConfigJSON{MinPts: minPts}, Wait: true}
	rt, err := c.call(l, "POST", "/v1/sessions/"+sessID+"/runs", req, &st)
	if err != nil {
		return nil, rt, err
	}
	if st.State != "done" || st.Result == nil || st.Stats == nil {
		return nil, rt, fmt.Errorf("run on %s: state %q without a result (%s)", sessID, st.State, st.Error)
	}
	if l.traced {
		queued := time.Duration(st.Stats.QueuedNS)
		ran := time.Duration(st.Stats.RunNS)
		l.addDur("engine.queued_s", queued)
		l.addDur("engine.run_s", ran)
		l.addDur("serve.run_s", rt.serve)
		l.addDur("serve.run_self_s", rt.serve-queued-ran)
	}
	return &st, rt, nil
}
