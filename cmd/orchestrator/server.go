package main

import (
	"net/http"
	"time"
)

// Front-door timeouts shared by the single-cluster and federated daemons.
// ReadHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow or stalled client cannot hold a connection open
// indefinitely; IdleTimeout closes keep-alive connections nobody uses.
// WriteTimeout stays zero on purpose: /api/v2/events streams are long-lived
// and a write deadline would cut every SSE watcher mid-stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds a daemon's http.Server with the front-door timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
