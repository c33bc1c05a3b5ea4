package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// MetricsSchema identifies the metrics artifact format; bump on
// incompatible changes so downstream tooling can dispatch.
const MetricsSchema = "distfdk-metrics/1"

// MetricsReport is the metrics JSON artifact written next to the
// BENCH_*.json files: every registry's counters/gauges/histograms plus
// the cluster-level skew aggregation. Spans are deliberately excluded —
// they belong to the (much larger) Chrome trace artifact; only their
// count remains so the two artifacts can be cross-checked.
type MetricsReport struct {
	Schema string        `json:"schema"`
	Ranks  []RankMetrics `json:"ranks"`
	// Cluster holds min/max/mean skew per counter across the rank
	// snapshots (shared snapshots excluded): the straggler diagnosis.
	Cluster map[string]Skew `json:"cluster,omitempty"`
	// CriticalPath attributes the makespan along the span DAG's longest
	// chain (critpath.go); absent when the snapshots carry no spans.
	CriticalPath *CritPathSummary `json:"critical_path,omitempty"`
}

// CritPathSummary is the artifact form of a CriticalPath: the class
// split, the headline fractions the scenario gates consume, and the
// per-(rank,stage,class) shares.
type CritPathSummary struct {
	MakespanNs   int64            `json:"makespan_ns"`
	ByClassNs    map[string]int64 `json:"by_class_ns"`
	CommFraction float64          `json:"comm_fraction"`
	WaitFraction float64          `json:"wait_fraction"`
	Steps        int              `json:"steps"`
	Shares       []CritShare      `json:"shares,omitempty"`
}

// Summary converts the computed path to its artifact form (nil in, nil
// out).
func (cp *CriticalPath) Summary() *CritPathSummary {
	if cp == nil {
		return nil
	}
	byClass := make(map[string]int64, len(cp.ByClass))
	for c, d := range cp.ByClass {
		byClass[c] = int64(d)
	}
	return &CritPathSummary{
		MakespanNs:   int64(cp.Makespan),
		ByClassNs:    byClass,
		CommFraction: cp.CommFraction,
		WaitFraction: cp.WaitFraction,
		Steps:        len(cp.Steps),
		Shares:       cp.Shares,
	}
}

// RankMetrics is one registry's metrics without its spans.
type RankMetrics struct {
	Rank       int                          `json:"rank"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	SpanCount  int                          `json:"span_count"`
}

// buildMetricsReport folds snapshots into the artifact structure.
func buildMetricsReport(snaps []Snapshot) *MetricsReport {
	rep := &MetricsReport{Schema: MetricsSchema, Cluster: AggregateCounters(snaps),
		CriticalPath: ComputeCriticalPath(snaps).Summary()}
	for _, s := range snaps {
		rep.Ranks = append(rep.Ranks, RankMetrics{
			Rank:       s.Rank,
			Counters:   s.Counters,
			Gauges:     s.Gauges,
			Histograms: s.Histograms,
			SpanCount:  len(s.Spans),
		})
	}
	return rep
}

// WriteMetricsJSON renders the snapshots as the indented metrics
// artifact. encoding/json sorts map keys, so the output is byte-stable
// for identical snapshots.
func WriteMetricsJSON(w io.Writer, snaps []Snapshot) error {
	out, err := json.MarshalIndent(buildMetricsReport(snaps), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// ValidateMetricsJSON parses a metrics artifact and checks its schema tag
// and internal consistency (histogram count sums match bucket sums). It
// returns the parsed report for further reconciliation by callers.
func ValidateMetricsJSON(data []byte) (*MetricsReport, error) {
	var rep MetricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("telemetry: metrics artifact is not valid JSON: %w", err)
	}
	if rep.Schema != MetricsSchema {
		return nil, fmt.Errorf("telemetry: metrics schema %q, want %q", rep.Schema, MetricsSchema)
	}
	if len(rep.Ranks) == 0 {
		return nil, fmt.Errorf("telemetry: metrics artifact has no rank sections")
	}
	for _, r := range rep.Ranks {
		for name, h := range r.Histograms {
			var n int64
			for _, c := range h.Counts {
				n += c
			}
			if n != h.Count {
				return nil, fmt.Errorf("telemetry: rank %d histogram %q bucket sum %d != count %d",
					r.Rank, name, n, h.Count)
			}
			if len(h.Counts) != len(h.Bounds)+1 {
				return nil, fmt.Errorf("telemetry: rank %d histogram %q has %d buckets for %d bounds",
					r.Rank, name, len(h.Counts), len(h.Bounds))
			}
		}
	}
	if cp := rep.CriticalPath; cp != nil {
		if cp.MakespanNs <= 0 {
			return nil, fmt.Errorf("telemetry: critical path has non-positive makespan %d", cp.MakespanNs)
		}
		var sum int64
		for _, ns := range cp.ByClassNs {
			sum += ns
		}
		if sum != cp.MakespanNs {
			return nil, fmt.Errorf("telemetry: critical path classes sum to %d, makespan is %d",
				sum, cp.MakespanNs)
		}
		for _, f := range []float64{cp.CommFraction, cp.WaitFraction} {
			if f < 0 || f > 1 {
				return nil, fmt.Errorf("telemetry: critical path fraction %v out of [0,1]", f)
			}
		}
	}
	return &rep, nil
}
