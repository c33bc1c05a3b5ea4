package telemetry_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"distfdk/internal/telemetry"
	"distfdk/internal/telemetry/statushttp"
)

// ListenStatus serves live /metrics and /statusz over a real socket, and
// a second bind on the same port fails synchronously with the typed
// *ServeError the CLIs fail fast on.
func TestListenStatusLive(t *testing.T) {
	run := telemetry.NewRun(1)
	run.Rank(0).Counter("core.batches").Add(1)
	srv, err := statushttp.ListenStatus("127.0.0.1:0", run)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if _, err := telemetry.ValidatePrometheus(get("/metrics")); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}
	var rep telemetry.StatusReport
	if err := json.Unmarshal(get("/statusz"), &rep); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if rep.Schema != telemetry.StatusSchema || len(rep.Ranks) != 1 || rep.Ranks[0].BatchesDone != 1 {
		t.Errorf("/statusz = %+v", rep)
	}

	_, err = statushttp.ListenStatus(srv.Addr(), run)
	if err == nil {
		t.Fatal("second bind on a busy port succeeded")
	}
	var se *statushttp.ServeError
	if !errors.As(err, &se) {
		t.Fatalf("bind failure is %T, want *ServeError", err)
	}
	if se.Addr != srv.Addr() || se.Unwrap() == nil {
		t.Errorf("ServeError = %+v, want addr and wrapped cause", se)
	}
}
