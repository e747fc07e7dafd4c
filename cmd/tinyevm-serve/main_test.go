package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsUnfinishedHeaders: a client that opens a connection
// and never finishes its request headers is cut off. With no
// ReadHeaderTimeout on the server the read below only returns at its
// own deadline, and the connection's goroutine and descriptor are the
// daemon's to keep.
func TestServerDropsUnfinishedHeaders(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("newHTTPServer sets no ReadHeaderTimeout")
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond // the daemon's 10 s, shortened
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST / HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server may answer 408 before closing; either way the stream ends.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after the header timeout: %v", err)
	}
}
