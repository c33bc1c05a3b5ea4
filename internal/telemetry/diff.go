// Snapshot harvesting helper: the read-side API the release wall
// (internal/scenario, cmd/slogate) extracts its per-run event counts
// through. Snapshots are plain data, so aggregation lives here rather than
// on the live registry — a harvester never perturbs the run it reads.
package telemetry

// CounterTotal sums the named counter across every snapshot, the shared
// registry's included — the run-wide total a gate compares against.
func CounterTotal(snaps []Snapshot, name string) int64 {
	var total int64
	for _, s := range snaps {
		total += s.Counters[name]
	}
	return total
}
