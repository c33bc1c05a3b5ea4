package main

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
)

// servePprof binds addr and serves net/http/pprof (http.DefaultServeMux)
// in a background goroutine until the returned listener is closed. The
// bind is synchronous, so a busy port fails here, before any experiment
// runs, instead of as a log line from the goroutine.
func servePprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof endpoint %s: %w", addr, err)
	}
	go http.Serve(ln, nil)
	fmt.Printf("pprof on http://%s/debug/pprof/\n", ln.Addr())
	return ln, nil
}
