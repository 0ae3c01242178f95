package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"logscape/internal/daemon"
	"logscape/internal/obs"
)

// TestObsServerDisconnectsStalledHeaders: -listen's server carries the
// header and idle limits and no body or response limit, and a client that
// opens a connection and never finishes its request headers is disconnected
// while a well-behaved one is still served /metrics — and finds no /trace.
// The header limit is shortened on the server under test so the test need
// not wait the real ten seconds.
func TestObsServerDisconnectsStalledHeaders(t *testing.T) {
	srv := daemon.NewServer(obsHandler(obs.New()))
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("server limits: header %v, idle %v; want 10s and 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v set: they would cut /debug/pprof/profile", srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)           //lint:allow bareconc carries Serve's return value to the test goroutine
	go func() { served <- srv.Serve(ln) }() //lint:allow bareconc the server under test has to accept while the test dials
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /metrics HTTP/1.1\r\nHost: depmine\r\nX-Never: finished"); err != nil {
		t.Fatal(err)
	}
	// The server says nothing to a client it times out of its headers: the
	// read ends when it hangs up, long before this deadline.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second)) //lint:allow wallclock a socket deadline is wall time; nothing mined depends on it
	if _, err := io.Copy(io.Discard, stalled); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a client that never finished its headers was still connected after 10 s")
	}

	for _, get := range []struct {
		path string
		want int
	}{{"/metrics", http.StatusOK}, {"/trace", http.StatusNotFound}} {
		resp, err := http.Get("http://" + ln.Addr().String() + get.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != get.want {
			t.Errorf("GET %s after the disconnect: %s, want %d", get.path, resp.Status, get.want)
		}
	}
}
