// Package statushttp serves a telemetry.Run live over HTTP: Prometheus
// text exposition on /metrics, the distfdk-status/1 JSON on /statusz, and
// everything else (pprof) delegated to http.DefaultServeMux. It is a
// package of its own so that importing telemetry links no HTTP server:
// fdkbench -pprof imports it, and fdkrecon does not.
package statushttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"distfdk/internal/telemetry"
)

// ServeError is the typed failure ListenStatus returns when the
// introspection endpoint cannot bind — so a CLI that was explicitly
// asked for -pprof fails fast instead of logging and running blind.
type ServeError struct {
	Addr string
	Err  error
}

func (e *ServeError) Error() string {
	return fmt.Sprintf("status endpoint %s: %v", e.Addr, e.Err)
}

func (e *ServeError) Unwrap() error { return e.Err }

// StatusServer is the live introspection endpoint backed by a run's
// registries.
type StatusServer struct {
	ln  net.Listener
	srv *http.Server
}

// ListenStatus binds addr and serves the run's live status. The bind is
// synchronous — a busy port surfaces as a *ServeError before any work
// starts — and request serving runs in a background goroutine.
func ListenStatus(addr string, run *telemetry.Run) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &ServeError{Addr: addr, Err: err}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, run.Snapshots())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(telemetry.BuildStatusReport(run))
	})
	// pprof registers on the default mux; keep serving it.
	mux.Handle("/", http.DefaultServeMux)
	s := &StatusServer{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0" in tests).
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *StatusServer) Close() error { return s.srv.Close() }
