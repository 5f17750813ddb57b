package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon front door's timeouts: headers and
// idle keep-alives are bounded, while writes stay unbounded so SSE event
// streams are never cut by a write deadline.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("addr/handler not wired: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0 (SSE streams are long-lived)", srv.WriteTimeout)
	}
}
