package core

import (
	"fmt"
	"strings"
	"time"

	"distfdk/internal/telemetry"
)

// fmtBytes renders a byte count with a binary unit, compact enough for the
// per-rank summary lines.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// String renders the run summary the drivers print after a distributed
// reconstruction: one line per rank (batches executed, bytes moved on both
// communicators, retry activity when telemetry was on) and, when telemetry
// was collected, the cross-rank skew of every counter (max−min exposes the
// straggler).
func (r *ClusterReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d ranks, elapsed %v\n", len(r.Ledgers), r.Elapsed.Round(time.Millisecond))
	counters := map[int]map[string]int64{}
	for _, s := range r.Telemetry {
		counters[s.Rank] = s.Counters
	}
	for i := range r.Ledgers {
		sent := r.WorldStats[i].BytesSent + r.GroupStats[i].BytesSent
		recv := r.WorldStats[i].BytesRecv + r.GroupStats[i].BytesRecv
		fmt.Fprintf(&b, "rank %2d: batches %d", i, r.BatchesDone[i])
		if r.BatchesSkipped != nil && r.BatchesSkipped[i] > 0 {
			// Resumed run: these batches were already durable in the
			// journal; they are not executed batches and are shown apart.
			fmt.Fprintf(&b, " (+%d skipped)", r.BatchesSkipped[i])
		}
		fmt.Fprintf(&b, ", sent %s, recv %s", fmtBytes(sent), fmtBytes(recv))
		if c := counters[i]; c != nil {
			fmt.Fprintf(&b, ", retries %d", c["fault.retries"])
			if ns := c["fault.backoff_ns"]; ns > 0 {
				fmt.Fprintf(&b, " (backoff %v)", time.Duration(ns).Round(time.Microsecond))
			}
		}
		if !r.Completed[i] {
			b.WriteString(" [incomplete]")
		}
		b.WriteByte('\n')
	}
	// Kernel efficiency: how the updates split across the kernel's three
	// paths. Skipped samples are provably-zero work the
	// kernel never executed — a high skip share means the GUPS number
	// rides on clipping, not arithmetic.
	var kTotal, kInterior, kBorder, kSkipped int64
	for i := range r.Ledgers {
		kTotal += r.Ledgers[i].VoxelUpdates
		kInterior += r.Ledgers[i].InteriorSamples
		kBorder += r.Ledgers[i].BorderSamples
		kSkipped += r.Ledgers[i].SkippedSamples
	}
	if kTotal > 0 && kInterior+kBorder+kSkipped > 0 {
		pct := func(n int64) float64 { return 100 * float64(n) / float64(kTotal) }
		fmt.Fprintf(&b, "kernel [%s]: %.1f%% interior / %.1f%% border / %.1f%% skipped of %d updates\n",
			r.Arithmetic(), pct(kInterior), pct(kBorder), pct(kSkipped), kTotal)
	}
	// Critical-path attribution: which rank × stage × class chain actually
	// bounded the makespan — the "why is it slow" companion to the skew
	// table's "who is slow".
	if cp := telemetry.ComputeCriticalPath(r.Telemetry); cp != nil {
		b.WriteString(cp.RenderTable(6))
	}
	// A skew table compares ranks: one rank's min, mean and max are its
	// own count, and a one-rank world prints none.
	if skew := telemetry.AggregateCounters(r.Telemetry); len(skew) > 0 && skewRanks(skew) > 1 {
		b.WriteString("counter skew across ranks (min / mean / max):\n")
		for _, name := range telemetry.SortedCounterNames(r.Telemetry) {
			sk, ok := skew[name]
			if !ok {
				continue // shared-registry-only counter: no rank skew
			}
			fmt.Fprintf(&b, "  %-28s %12d / %14.1f / %12d\n", name, sk.Min, sk.Mean, sk.Max)
		}
	}
	return b.String()
}

// skewRanks is the number of ranks skew was aggregated over.
func skewRanks(skew map[string]telemetry.Skew) int {
	for _, sk := range skew {
		return sk.Ranks
	}
	return 0
}
