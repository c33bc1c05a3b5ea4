// Live run introspection: the post-mortem registry snapshots double as a
// live data source because every read path (Snapshot, Status, Flows) is
// lock-consistent while writers are still recording. This file serves
// them two ways while back-projection is in flight — Prometheus text
// exposition on /metrics and a distfdk-status/1 JSON view on /statusz.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promPrefix namespaces every exported metric.
const promPrefix = "distfdk_"

// promName sanitises a registry metric name into a Prometheus metric
// name: dots and any other non-alphanumeric become underscores.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promRank renders the rank label value ("shared" for the shared
// registry).
func promRank(rank int) string {
	if rank == SharedRank {
		return "shared"
	}
	return strconv.Itoa(rank)
}

// writePrometheus renders the snapshots in Prometheus text exposition
// format (version 0.0.4): counters, gauges and histograms with a `rank`
// label, grouped under one # TYPE line per metric, names sorted so the
// output is deterministic. A `distfdk_up 1` gauge is always present, so
// a scrape that lands before the run records anything still sees a valid
// non-empty exposition.
func writePrometheus(w io.Writer, snaps []Snapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %sup gauge\n%sup 1\n", promPrefix, promPrefix); err != nil {
		return err
	}
	counterNames := map[string]struct{}{}
	gaugeNames := map[string]struct{}{}
	histNames := map[string]struct{}{}
	for _, s := range snaps {
		for name := range s.Counters {
			counterNames[name] = struct{}{}
		}
		for name := range s.Gauges {
			gaugeNames[name] = struct{}{}
		}
		for name := range s.Histograms {
			histNames[name] = struct{}{}
		}
	}
	sorted := func(m map[string]struct{}) []string {
		out := make([]string, 0, len(m))
		for name := range m {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	for _, name := range sorted(counterNames) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		for _, s := range snaps {
			if v, ok := s.Counters[name]; ok {
				fmt.Fprintf(w, "%s{rank=%q} %d\n", pn, promRank(s.Rank), v)
			}
		}
	}
	for _, name := range sorted(gaugeNames) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		for _, s := range snaps {
			if v, ok := s.Gauges[name]; ok {
				fmt.Fprintf(w, "%s{rank=%q} %d\n", pn, promRank(s.Rank), v)
			}
		}
	}
	for _, name := range sorted(histNames) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		for _, s := range snaps {
			h, ok := s.Histograms[name]
			if !ok {
				continue
			}
			rk := promRank(s.Rank)
			// Prometheus buckets are cumulative; the registry's are not.
			var cum int64
			for i, bound := range h.Bounds {
				if i < len(h.Counts) {
					cum += h.Counts[i]
				}
				fmt.Fprintf(w, "%s_bucket{rank=%q,le=%q} %d\n", pn, rk, strconv.FormatInt(bound, 10), cum)
			}
			fmt.Fprintf(w, "%s_bucket{rank=%q,le=\"+Inf\"} %d\n", pn, rk, h.Count)
			fmt.Fprintf(w, "%s_sum{rank=%q} %d\n", pn, rk, h.Sum)
			fmt.Fprintf(w, "%s_count{rank=%q} %d\n", pn, rk, h.Count)
		}
	}
	return nil
}

// ValidatePrometheus checks that data is a plausible text exposition:
// every non-comment line parses as `name{labels} value` with a finite
// float value, every # TYPE declares a known type, and at least one
// sample is present. Returns the sample count.
func ValidatePrometheus(data []byte) (int, error) {
	samples := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return samples, fmt.Errorf("prom line %d: malformed TYPE comment %q", ln+1, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, fmt.Errorf("prom line %d: unknown metric type %q", ln+1, fields[3])
				}
			}
			continue
		}
		// name{labels} value — split the value off the last space first so
		// label values containing spaces stay intact.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return samples, fmt.Errorf("prom line %d: no value in %q", ln+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return samples, fmt.Errorf("prom line %d: unterminated label set in %q", ln+1, line)
			}
			name = name[:i]
		}
		if name == "" || !(name[0] == '_' || name[0] >= 'a' && name[0] <= 'z' || name[0] >= 'A' && name[0] <= 'Z') {
			return samples, fmt.Errorf("prom line %d: bad metric name %q", ln+1, name)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return samples, fmt.Errorf("prom line %d: bad sample value %q", ln+1, val)
		}
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("prometheus exposition contains no samples")
	}
	return samples, nil
}

// RankStatus is one rank's live state in the /statusz view.
type RankStatus struct {
	Rank         int    `json:"rank"`
	Phase        string `json:"phase,omitempty"` // current fault phase (status key "phase")
	Stage        string `json:"stage,omitempty"` // current pipeline stage (status key "stage")
	CurrentBatch int64  `json:"current_batch"`
	BatchesDone  int64  `json:"batches_done"`
	ResidentRows int64  `json:"ring_resident_rows"`
	Spans        int    `json:"spans"`
	Flows        int    `json:"flows"`
}

// StatusReport is the /statusz document: schema distfdk-status/1.
type StatusReport struct {
	Schema     string       `json:"schema"`
	UptimeNs   int64        `json:"uptime_ns"`
	WorldRanks int64        `json:"world_ranks"`
	Restarts   int64        `json:"restarts"`
	Ranks      []RankStatus `json:"ranks"`
}

// StatusSchema is the versioned schema tag of the /statusz document.
const StatusSchema = "distfdk-status/1"

// buildStatusReport assembles the live status view from the run's
// current registries. Safe to call while ranks are recording.
func buildStatusReport(run *Run) StatusReport {
	rep := StatusReport{Schema: StatusSchema, UptimeNs: int64(run.Elapsed())}
	if run == nil {
		return rep
	}
	shared := run.Shared().Snapshot()
	rep.Restarts = shared.Counters["supervise.restarts"]
	rep.WorldRanks = shared.Gauges["supervise.world_ranks"]
	if rep.WorldRanks == 0 {
		rep.WorldRanks = int64(run.Ranks())
	}
	for r := 0; r < run.Ranks(); r++ {
		s := run.Rank(r).Snapshot()
		rep.Ranks = append(rep.Ranks, RankStatus{
			Rank:         r,
			Phase:        s.Status["phase"],
			Stage:        s.Status["stage"],
			CurrentBatch: s.Gauges["core.current_batch"],
			BatchesDone:  s.Counters["core.batches"],
			ResidentRows: s.Gauges["device.ring.resident_rows"],
			Spans:        len(s.Spans),
			Flows:        len(s.Flows),
		})
	}
	return rep
}

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

// StatusServer is the live introspection endpoint: /metrics (Prometheus
// text format) and /statusz (JSON) backed by the run's registries, with
// everything else (pprof) delegated to http.DefaultServeMux.
type StatusServer struct {
	ln  net.Listener
	srv *http.Server
}

// ListenStatus binds addr and serves the run's live status. The bind is
// synchronous — a busy port surfaces as a *ServeError before any work
// starts — and request serving runs in a background goroutine.
func ListenStatus(addr string, run *Run) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &ServeError{Addr: addr, Err: err}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, run.Snapshots())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(buildStatusReport(run))
	})
	// pprof registers on the default mux; keep serving it.
	mux.Handle("/", http.DefaultServeMux)
	s := &StatusServer{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0" in tests).
func (s *StatusServer) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server.
func (s *StatusServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
