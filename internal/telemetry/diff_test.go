package telemetry

import "testing"

func TestHistogramQuantile(t *testing.T) {
	h := HistogramSnapshot{
		Bounds: []int64{10, 20, 40},
		Counts: []int64{2, 2, 0, 0}, // 4 observations ≤ 20
		Count:  4,
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("Quantile(0.5) = %g, want 10 (bucket edge)", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("Quantile(1) = %g, want 20", q)
	}
	if q := h.Quantile(0.25); q != 5 {
		t.Errorf("Quantile(0.25) = %g, want 5 (mid-bucket interpolation)", q)
	}
	empty := HistogramSnapshot{}
	if q := empty.Quantile(0.9); q != 0 {
		t.Errorf("empty Quantile = %g, want 0", q)
	}
	// A quantile in the overflow bucket reports the last finite bound.
	over := HistogramSnapshot{Bounds: []int64{10}, Counts: []int64{0, 3}, Count: 3}
	if q := over.Quantile(0.5); q != 10 {
		t.Errorf("overflow Quantile = %g, want last bound 10", q)
	}
}

// The degenerate histogram shapes a gate can feed Quantile: a single
// finite bucket interpolates inside itself, and a distribution living
// entirely in the overflow bucket reports the last finite bound for every
// quantile (the documented lower-bound behaviour).
func TestHistogramQuantileDegenerateShapes(t *testing.T) {
	single := HistogramSnapshot{Bounds: []int64{10}, Counts: []int64{4, 0}, Count: 4}
	if q := single.Quantile(0.5); q != 5 {
		t.Errorf("single-bucket Quantile(0.5) = %g, want 5", q)
	}
	if q := single.Quantile(1); q != 10 {
		t.Errorf("single-bucket Quantile(1) = %g, want the bucket bound 10", q)
	}
	if q := single.Quantile(-2); q != 0 {
		t.Errorf("clamped Quantile(-2) = %g, want 0", q)
	}
	allOver := HistogramSnapshot{Bounds: []int64{10, 20}, Counts: []int64{0, 0, 5}, Count: 5}
	for _, q := range []float64{0.01, 0.5, 0.99, 2} {
		if got := allOver.Quantile(q); got != 20 {
			t.Errorf("all-overflow Quantile(%g) = %g, want last bound 20", q, got)
		}
	}
	// Bounds present but no counts slice: defensively zero.
	if q := (HistogramSnapshot{Bounds: []int64{10}, Count: 3}).Quantile(0.5); q != 0 {
		t.Errorf("countless histogram Quantile = %g, want 0", q)
	}
}

func TestCounterTotalAndMerge(t *testing.T) {
	snaps := []Snapshot{
		{Rank: 0, Counters: map[string]int64{"core.batches": 4},
			Histograms: map[string]HistogramSnapshot{
				"lat": {Bounds: []int64{10}, Counts: []int64{1, 0}, Sum: 5, Count: 1}}},
		{Rank: 1, Counters: map[string]int64{"core.batches": 3},
			Histograms: map[string]HistogramSnapshot{
				"lat": {Bounds: []int64{10}, Counts: []int64{0, 2}, Sum: 60, Count: 2}}},
		{Rank: SharedRank, Counters: map[string]int64{"supervise.restarts": 1}},
	}
	if got := CounterTotal(snaps, "core.batches"); got != 7 {
		t.Errorf("CounterTotal = %d, want 7", got)
	}
	if got := CounterTotal(snaps, "absent"); got != 0 {
		t.Errorf("CounterTotal(absent) = %d, want 0", got)
	}
	m, ok := MergeHistograms(snaps, "lat")
	if !ok || m.Count != 3 || m.Sum != 65 || m.Counts[1] != 2 {
		t.Errorf("MergeHistograms = %+v ok=%v, want 3 observations summing 65", m, ok)
	}
	if _, ok := MergeHistograms(snaps, "absent"); ok {
		t.Error("MergeHistograms(absent) reported ok")
	}
}
