// Snapshot harvesting helpers: the stable read-side API the SLO gate
// (internal/scenario, cmd/slogate) extracts its per-run metrics through.
// Snapshots are plain data, so aggregation lives here rather than on the
// live registry — a harvester never perturbs the run it reads.
package telemetry

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values
// from the bucket counts, interpolating linearly inside the bucket the
// quantile falls in. The overflow bucket has no upper bound, so a quantile
// landing there returns the last finite bound (a lower bound on the true
// value — still usable as a gate input, and documented as such). An empty
// histogram returns 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			if i >= len(h.Bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return float64(h.Bounds[len(h.Bounds)-1])
			}
			hi := float64(h.Bounds[i])
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// CounterTotal sums the named counter across every snapshot, the shared
// registry's included — the run-wide total a gate compares against.
func CounterTotal(snaps []Snapshot, name string) int64 {
	var total int64
	for _, s := range snaps {
		total += s.Counters[name]
	}
	return total
}

// MergeHistograms folds the named histogram across snapshots into one
// run-wide distribution. Snapshots without the metric, or with bounds that
// disagree with the first occurrence, are skipped; ok reports whether any
// snapshot carried it.
func MergeHistograms(snaps []Snapshot, name string) (merged HistogramSnapshot, ok bool) {
	for _, s := range snaps {
		h, has := s.Histograms[name]
		if !has {
			continue
		}
		if !ok {
			merged = HistogramSnapshot{
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Sum:    h.Sum,
				Count:  h.Count,
			}
			ok = true
			continue
		}
		if len(h.Counts) != len(merged.Counts) || len(h.Bounds) != len(merged.Bounds) {
			continue
		}
		for i := range merged.Counts {
			merged.Counts[i] += h.Counts[i]
		}
		merged.Sum += h.Sum
		merged.Count += h.Count
	}
	return merged, ok
}
