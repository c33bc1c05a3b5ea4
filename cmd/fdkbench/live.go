package main

import (
	"fmt"
	_ "net/http/pprof" // registers /debug/pprof on the default mux

	"distfdk/internal/telemetry"
	"distfdk/internal/telemetry/statushttp"
)

// servePprof starts the live introspection endpoint: net/http/pprof on
// /debug/pprof, Prometheus text exposition on /metrics and the
// distfdk-status/1 JSON on /statusz. The bind is synchronous, so a busy
// port surfaces as a typed *statushttp.ServeError to the caller instead
// of a log line from a background goroutine.
func servePprof(addr string, run *telemetry.Run) (*statushttp.StatusServer, error) {
	srv, err := statushttp.ListenStatus(addr, run)
	if err != nil {
		return nil, err
	}
	fmt.Printf("introspection endpoints on http://%s/{debug/pprof,metrics,statusz}\n", srv.Addr())
	return srv, nil
}
