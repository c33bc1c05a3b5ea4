package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
	"distfdk/internal/telemetry/statushttp"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// An explicit -pprof on a busy port must surface as a typed error from
// servePprof before any benchmark work starts — the CLI fails fast
// instead of running unobservable.
func TestServePprofBindFailure(t *testing.T) {
	run := telemetry.NewRun(1)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	_, err = servePprof(busy.Addr().String(), run)
	if err == nil {
		t.Fatal("servePprof bound a busy port")
	}
	var se *statushttp.ServeError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *statushttp.ServeError", err)
	}
	if se.Addr != busy.Addr().String() {
		t.Errorf("ServeError.Addr = %q, want %q", se.Addr, busy.Addr().String())
	}
	if se.Unwrap() == nil {
		t.Error("ServeError carries no cause")
	}

	// A free port succeeds and serves immediately.
	srv, err := servePprof("127.0.0.1:0", run)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Error("bound server reports no address")
	}
}

// heldSource serves its first load, then holds every later one until
// release is closed: a reconstruction reading it cannot finish before the
// test lets it.
type heldSource struct {
	projection.Source
	first   sync.Once
	release chan struct{}
}

func (s *heldSource) LoadRows(rows geometry.RowRange, pLo, pHi int) (*projection.Stack, error) {
	held := true
	s.first.Do(func() { held = false })
	if held {
		<-s.release
	}
	return s.Source.LoadRows(rows, pLo, pHi)
}

// The endpoint reads the registries a reconstruction is writing: scraped
// while the run is in flight, /statusz shows a rank at work (a batch done,
// a span recorded or a current batch past the first) and /metrics is a
// valid exposition. CI's live endpoint smoke runs fdkbench -pprof, whose
// registry records experiments rather than batches; this is the same check
// on a reconstruction.
func TestLiveEndpointShowsWorkInFlight(t *testing.T) {
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 48, NV: 40, DU: 0.5, DV: 0.5,
		NP: 32,
		NX: 24, NY: 24, NZ: 24, DX: 0.5, DY: 0.5, DZ: 0.5,
	}
	st, err := forward.Project(sys, phantom.SheppLogan(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := core.NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	src := &heldSource{Source: &projection.MemorySource{Full: st}, release: make(chan struct{})}
	run := telemetry.NewRun(plan.Ranks())
	srv, err := statushttp.ListenStatus("127.0.0.1:0", run)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, runErr = core.Supervise(core.SuperviseOptions{Cluster: core.ClusterOptions{
			Plan: plan, Source: src, Output: sink, Telemetry: run,
		}})
	}()
	var once sync.Once
	release := func() { once.Do(func() { close(src.release) }) }
	defer func() { release(); <-done }()

	busy := false
	for deadline := time.Now().Add(10 * time.Second); !busy && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var rep telemetry.StatusReport
		if err := json.Unmarshal(get(t, "http://"+srv.Addr()+"/statusz"), &rep); err != nil {
			t.Fatalf("/statusz not JSON: %v", err)
		}
		if rep.Schema != telemetry.StatusSchema {
			t.Fatalf("/statusz schema %q", rep.Schema)
		}
		for _, r := range rep.Ranks {
			busy = busy || r.BatchesDone > 0 || r.Spans > 0 || r.CurrentBatch > 0
		}
	}
	if !busy {
		t.Fatal("no /statusz capture in 10 s showed a rank at work")
	}
	if _, err := telemetry.ValidatePrometheus(get(t, "http://"+srv.Addr()+"/metrics")); err != nil {
		t.Errorf("/metrics captured in flight is invalid: %v", err)
	}
	select {
	case <-done:
		t.Fatalf("the reconstruction finished before its held loads were released: %v", runErr)
	default:
	}
	release()
	<-done
	if runErr != nil {
		t.Fatalf("reconstruction: %v", runErr)
	}
}
