package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected pins the slow-client guard: a client
// that sends half a request header and then stalls is disconnected once
// readHeaderTimeout expires, without the handler ever running.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	called := make(chan struct{}, 1)
	srv := newHTTPServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { called <- struct{}{} }))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	// The server must hang up by itself; the deadline only keeps a
	// missing timeout from hanging the test.
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// net/http may answer with a 4xx status before hanging up; either
	// way the connection must reach EOF.
	resp, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection not closed %v after a half header (ReadHeaderTimeout %v): %v", elapsed, readHeaderTimeout, err)
	}
	if len(resp) > 0 && !strings.HasPrefix(string(resp), "HTTP/1.1 4") {
		t.Fatalf("server answered a half header with %q, want nothing or a 4xx status", resp)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout could expire", elapsed, readHeaderTimeout)
	}
	select {
	case <-called:
		t.Error("handler ran for an incomplete request")
	default:
	}
}
