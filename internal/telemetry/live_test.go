package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

func liveSnapshots() []Snapshot {
	return []Snapshot{
		{Rank: 0,
			Counters:   map[string]int64{"core.batches": 3, "mpi.bytes_sent": 4096},
			Gauges:     map[string]int64{"core.current_batch": 2},
			Histograms: map[string]HistogramSnapshot{"mpi.send_ns": {Bounds: []int64{100, 1000}, Counts: []int64{1, 2, 1}, Sum: 2500, Count: 4}},
		},
		{Rank: SharedRank, Counters: map[string]int64{"supervise.restarts": 1}},
	}
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := writePrometheus(&b, liveSnapshots()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	n, err := ValidatePrometheus([]byte(out))
	if err != nil {
		t.Fatalf("exposition fails its own validator: %v\n%s", err, out)
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	for _, want := range []string{
		"distfdk_up 1",
		`distfdk_core_batches{rank="0"} 3`,
		`distfdk_supervise_restarts{rank="shared"} 1`,
		// Cumulative buckets: 1, 1+2, then +Inf carries the total count.
		`distfdk_mpi_send_ns_bucket{rank="0",le="100"} 1`,
		`distfdk_mpi_send_ns_bucket{rank="0",le="1000"} 3`,
		`distfdk_mpi_send_ns_bucket{rank="0",le="+Inf"} 4`,
		`distfdk_mpi_send_ns_sum{rank="0"} 2500`,
		"# TYPE distfdk_mpi_send_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// An empty run still exposes a valid non-empty page (distfdk_up).
	b.Reset()
	if err := writePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheus([]byte(b.String())); err != nil {
		t.Errorf("empty-run exposition invalid: %v", err)
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"comments only":  "# TYPE distfdk_up gauge\n",
		"malformed TYPE": "# TYPE distfdk_up\ndistfdk_up 1\n",
		"unknown type":   "# TYPE distfdk_up enum\ndistfdk_up 1\n",
		"no value":       "distfdk_up\n",
		"bad value":      "distfdk_up one\n",
		"bad name":       "9up 1\n",
		"open label set": `distfdk_up{rank="0" 1` + "\n",
	}
	for name, raw := range cases {
		if _, err := ValidatePrometheus([]byte(raw)); err == nil {
			t.Errorf("%s: validator accepted %q", name, raw)
		}
	}
}

func TestBuildStatusReport(t *testing.T) {
	rep := buildStatusReport(nil)
	if rep.Schema != StatusSchema || len(rep.Ranks) != 0 {
		t.Fatalf("nil-run report = %+v, want bare schema document", rep)
	}

	run := NewRun(2)
	reg := run.Rank(0)
	reg.Counter("core.batches").Add(5)
	reg.Gauge("core.current_batch").Set(6)
	reg.Gauge("device.ring.resident_rows").Set(48)
	reg.SetStatus("phase", "healthy")
	reg.SetStatus("stage", "run")
	end := reg.Span("backproject", 6)
	end()
	run.Shared().Counter("supervise.restarts").Add(2)

	rep = buildStatusReport(run)
	if rep.Schema != StatusSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.WorldRanks != 2 {
		t.Errorf("WorldRanks = %d, want fallback run.Ranks() = 2", rep.WorldRanks)
	}
	if rep.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2", rep.Restarts)
	}
	if len(rep.Ranks) != 2 {
		t.Fatalf("%d rank entries, want 2", len(rep.Ranks))
	}
	r0 := rep.Ranks[0]
	if r0.BatchesDone != 5 || r0.CurrentBatch != 6 || r0.ResidentRows != 48 ||
		r0.Phase != "healthy" || r0.Stage != "run" || r0.Spans != 1 {
		t.Errorf("rank 0 status = %+v", r0)
	}
	if rep.Ranks[1].BatchesDone != 0 {
		t.Errorf("idle rank 1 reports work: %+v", rep.Ranks[1])
	}
}

// ListenStatus serves live /metrics and /statusz over a real socket, and
// a second bind on the same port fails synchronously with the typed
// *ServeError the CLIs fail fast on.
func TestListenStatusLive(t *testing.T) {
	run := NewRun(1)
	run.Rank(0).Counter("core.batches").Add(1)
	srv, err := ListenStatus("127.0.0.1:0", run)
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
	if _, err := ValidatePrometheus(get("/metrics")); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}
	var rep StatusReport
	if err := json.Unmarshal(get("/statusz"), &rep); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if rep.Schema != StatusSchema || len(rep.Ranks) != 1 || rep.Ranks[0].BatchesDone != 1 {
		t.Errorf("/statusz = %+v", rep)
	}

	_, err = ListenStatus(srv.Addr(), run)
	if err == nil {
		t.Fatal("second bind on a busy port succeeded")
	}
	var se *ServeError
	if !errors.As(err, &se) {
		t.Fatalf("bind failure is %T, want *ServeError", err)
	}
	if se.Addr != srv.Addr() || se.Unwrap() == nil {
		t.Errorf("ServeError = %+v, want addr and wrapped cause", se)
	}
}
