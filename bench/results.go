package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metric is one reported number. Sampled metrics (the normalised timings of
// the measured reps and of the repeated set-ups, the resident sets) keep
// their samples; Value is then their first quartile, or for the resident
// set their median.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one workload's row of the results file.
type workloadResult struct {
	Name         string            `json:"name"`
	Why          string            `json:"why"`
	Seed         int64             `json:"seed"`
	Command      []string          `json:"command"`
	Dims         dims              `json:"dims"`
	SHA256       string            `json:"sha256"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Failures     []string          `json:"failures,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	Reps         []rep             `json:"reps,omitempty"` // as measured, before normalising
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
}

// results is the file a run writes: results.json in the output directory.
type results struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

func (r *results) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the driver's steadiness rule uses. Fewer than two samples have
// no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// sampled builds a metric whose value is the median of its samples.
func sampled(xs []float64, unit string) metric {
	return metric{Value: median(xs), Unit: unit, Samples: xs}
}

// lowerQuartile builds a metric whose value is the first quartile of its
// samples.
func lowerQuartile(xs []float64, unit string) metric {
	q1, _ := quartiles(xs)
	return metric{Value: q1, Unit: unit, Samples: xs}
}

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// check fails unless res carries, for every workload BENCHMARK.json names,
// every declared metric with its declared unit and a finite value, and
// nothing BENCHMARK.json does not declare.
func check(spec *benchmarkSpec, res *results) []string {
	var problems []string
	bad := func(format string, a ...any) { problems = append(problems, fmt.Sprintf(format, a...)) }
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
		wr := res.workload(w.Name)
		if wr == nil {
			bad("workload %s: missing", w.Name)
			continue
		}
		if wr.OpsAttempted < 1 || wr.OpsFailed != 0 {
			bad("workload %s: %d of %d operations failed", w.Name, wr.OpsFailed, wr.OpsAttempted)
		}
		for _, set := range []struct {
			kind  string
			specs []metricSpec
			got   map[string]metric
		}{{"end_to_end", spec.EndToEnd, wr.EndToEnd}, {"per_layer", spec.PerLayer, wr.PerLayer}} {
			names := map[string]bool{}
			for _, ms := range set.specs {
				names[ms.Name] = true
				m, ok := set.got[ms.Name]
				switch {
				case !ok:
					bad("%s/%s: %s metric missing", w.Name, ms.Name, set.kind)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					bad("%s/%s: value %v is not finite", w.Name, ms.Name, m.Value)
				case m.Unit != ms.Unit:
					bad("%s/%s: unit %q, declared %q", w.Name, ms.Name, m.Unit, ms.Unit)
				}
			}
			for name := range set.got {
				if !names[name] {
					bad("%s/%s: emitted but not declared as %s", w.Name, name, set.kind)
				}
			}
		}
	}
	for _, wr := range res.Workloads {
		if !declared[wr.Name] {
			bad("workload %s: emitted but not declared", wr.Name)
		}
	}
	sort.Strings(problems)
	return problems
}

// compare prints, per end-to-end metric and workload, head's value
// against base's and the metric's bound, and returns how many pairs got
// worse by more than the bound. A pair whose interquartile spread on
// either side exceeds the bound is reported as unresolved, never as
// unchanged: the runs cannot tell. Per-layer counts that must repeat
// exactly are listed when they differ.
func compare(out io.Writer, spec *benchmarkSpec, base, head *results) (regressed int) {
	fmt.Fprintf(out, "%-15s %-13s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "head", "delta", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		b, h := base.workload(w.Name), head.workload(w.Name)
		if b == nil || h == nil {
			fmt.Fprintf(out, "%-15s missing from one side\n", w.Name)
			regressed++
			continue
		}
		for _, ms := range spec.EndToEnd {
			bm, hm := b.EndToEnd[ms.Name], h.EndToEnd[ms.Name]
			worse := (hm.Value - bm.Value) / math.Abs(bm.Value)
			if ms.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(bm.Samples), spread(hm.Samples))
			verdict := "unchanged"
			switch {
			case math.IsNaN(worse) || worse > ms.Bound:
				verdict = "REGRESSED"
				regressed++
			case sp > ms.Bound:
				verdict = "unresolved"
			case worse < -ms.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-15s %-13s %12.6g %12.6g %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				w.Name, ms.Name, bm.Value, hm.Value, 100*worse, 100*sp, 100*ms.Bound, verdict)
		}
		for _, name := range exactCounts {
			bv, hv := b.PerLayer[name].Value, h.PerLayer[name].Value
			if _, ok := b.PerLayer[name]; ok && bv != hv {
				fmt.Fprintf(out, "%-15s %-28s %v -> %v  count differs\n", w.Name, name, bv, hv)
			}
		}
	}
	return regressed
}

// exactCounts are the per-layer metrics that repeat exactly between runs
// of one commit on one input.
var exactCounts = []string{
	"filter.rows", "device.h2d_bytes", "backproject.updates",
	"backproject.evaluated_frac", "mpi.reduce_bytes", "storage.journal_appends",
}
