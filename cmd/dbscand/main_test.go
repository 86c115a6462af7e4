package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestPartialHeaderConnectionClosed: a client that sends part of a request
// header and then stalls (slowloris) has its connection closed by the API
// server once readHeaderTimeout passes, not held open indefinitely.
func TestPartialHeaderConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newAPIServer(ln.Addr().String(), http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts %v/%v, want %v/%v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /v1/sessions HTTP/1.1\r\nHost: localhost\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	// The server may answer with an error status before closing; either
	// way the read must end in EOF from the server, not in our own
	// deadline.
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a partial header", time.Since(start))
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if el := time.Since(start); el < readHeaderTimeout-100*time.Millisecond {
		t.Fatalf("connection closed after %v, before the %v header timeout", el, readHeaderTimeout)
	}
}
