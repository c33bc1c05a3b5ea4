package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
)

// TestChaosTelemetryReconcile is the cross-layer closing of the loop: a
// distributed chaos run (transient faults + stragglers) with telemetry on
// must produce retry/backoff evidence in the counters and spans, and
// trace/metrics artifacts that pass their validators with every rank
// represented and carry the report's totals.
func TestChaosTelemetryReconcile(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(7,
		fault.Rule{Op: fault.OpLoad, Rank: fault.AnyRank, Nth: 1, Count: 1, Class: fault.Transient},
		fault.Rule{Op: fault.OpSend, Rank: 1, Nth: 2, Count: 2, Delay: 2 * time.Millisecond},
	)
	run := telemetry.NewRun(p.Ranks())
	sink, _ := NewVolumeSink(sys)
	rep, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: sink,
		FaultInjector:      in,
		CollectiveDeadline: 5 * time.Second,
		Retry: &fault.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   200 * time.Microsecond,
			MaxDelay:    2 * time.Millisecond,
			Seed:        7,
		},
		Telemetry: run,
	})
	if err != nil {
		t.Fatalf("transient chaos must be absorbed: %v", err)
	}
	if in.Fired() == 0 {
		t.Fatal("schedule injected nothing")
	}
	if len(rep.Telemetry) < p.Ranks() {
		t.Fatalf("report carries %d snapshots, want at least %d", len(rep.Telemetry), p.Ranks())
	}

	snapByRank := map[int]telemetry.Snapshot{}
	for _, s := range rep.Telemetry {
		snapByRank[s.Rank] = s
	}
	var totalRetries int64
	backoffSpans := 0
	for r := 0; r < p.Ranks(); r++ {
		s, ok := snapByRank[r]
		if !ok {
			t.Fatalf("rank %d missing from telemetry", r)
		}
		totalRetries += s.Counters["fault.retries"]
		for _, sp := range s.Spans {
			if sp.Name == "backoff" {
				backoffSpans++
			}
		}
	}
	// The injected transient faults must be visible as retry evidence.
	if totalRetries == 0 {
		t.Error("no fault.retries recorded despite injected transient faults")
	}
	if backoffSpans == 0 {
		t.Error("no backoff spans recorded despite retries")
	}

	// The artifacts must validate, with every rank present in the trace.
	var trace bytes.Buffer
	if err := telemetry.WriteChromeTrace(&trace, rep.Telemetry); err != nil {
		t.Fatal(err)
	}
	sum, err := telemetry.ValidateChromeTrace(trace.Bytes())
	if err != nil {
		t.Fatalf("trace artifact invalid: %v", err)
	}
	if sum.Events == 0 {
		t.Fatal("trace has no events")
	}
	for r := 0; r < p.Ranks(); r++ {
		if !sum.Pids[r] {
			t.Errorf("rank %d has no track in the trace", r)
		}
	}
	// The run moved real messages with telemetry on, so the trace must
	// carry flow arrows and every one must link a send to its recv.
	if sum.FlowBegins == 0 {
		t.Error("trace carries no flow begin events despite mpi traffic")
	}
	if sum.FlowEnds == 0 {
		t.Error("trace carries no flow finish events despite mpi traffic")
	}
	if n := sum.Unmatched(); n > 0 {
		t.Errorf("%d flow begins have no finish", n)
	}
	var metrics bytes.Buffer
	if err := telemetry.WriteMetricsJSON(&metrics, rep.Telemetry); err != nil {
		t.Fatal(err)
	}
	mrep, err := telemetry.ValidateMetricsJSON(metrics.Bytes())
	if err != nil {
		t.Fatalf("metrics artifact invalid: %v", err)
	}
	// The artifact's totals must match ClusterReport's: sum of the
	// per-rank mpi.bytes_sent counters == sum of world+group BytesSent.
	var artifactSent, reportSent int64
	for _, rm := range mrep.Ranks {
		if rm.Rank == telemetry.SharedRank {
			continue
		}
		artifactSent += rm.Counters["mpi.bytes_sent"]
	}
	for r := 0; r < p.Ranks(); r++ {
		reportSent += rep.WorldStats[r].BytesSent + rep.GroupStats[r].BytesSent
	}
	if artifactSent != reportSent {
		t.Errorf("metrics artifact bytes_sent total %d != report total %d", artifactSent, reportSent)
	}

	out := rep.String()
	if !bytes.Contains([]byte(out), []byte("counter skew")) {
		t.Errorf("report summary missing skew section:\n%s", out)
	}
}

// The skew table compares ranks: a one-rank world, whose min, mean and
// max are one count, prints none, and a two-rank one keeps it.
func TestSkewTableNeedsTwoRanks(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	for _, ranks := range []int{1, 2} {
		p, err := NewPlan(sys, 1, ranks, 2)
		if err != nil {
			t.Fatal(err)
		}
		sink, _ := NewVolumeSink(sys)
		rep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink, Telemetry: telemetry.NewRun(ranks)})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(rep.String(), "counter skew"); got != (ranks > 1) {
			t.Errorf("%d-rank report prints a skew table: %v, want %v:\n%s", ranks, got, ranks > 1, rep.String())
		}
	}
}

// Single-device runs share the wiring: stage spans and ring counters report
// into one registry.
func TestSingleTelemetry(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sink, _ := NewVolumeSink(sys)
	rep, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: src, Device: device.New("tel", 0, 2),
		Sink: sink, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slabs == 0 {
		t.Fatal("no batch executed")
	}
	s := reg.Snapshot()
	if s.Counters["device.ring.load_rows"] == 0 {
		t.Error("ring loads not recorded")
	}
	stages := map[string]bool{}
	for _, sp := range s.Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{"load", "filter", "backproject", "store"} {
		if !stages[want] {
			t.Errorf("stage %q recorded no spans (have %v)", want, stages)
		}
	}
	if telemetry.ComputeSpanStats(s.Spans).Total <= 0 {
		t.Error("the stage spans cover no wall-clock window")
	}
}

// TestCriticalPathAttribution pins the acceptance contract on a real
// deterministic 4-rank run: the extracted critical path tiles the
// measured makespan exactly (stronger than the 1% budget), the makespan
// is the true span window, and the attribution survives the metrics
// artifact round-trip and the printed report.
func TestCriticalPathAttribution(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := telemetry.NewRun(p.Ranks())
	sink, _ := NewVolumeSink(sys)
	rep, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: sink, Telemetry: run,
	})
	if err != nil {
		t.Fatal(err)
	}

	cp := telemetry.ComputeCriticalPath(rep.Telemetry)
	if cp == nil {
		t.Fatal("no critical path from a telemetered 4-rank run")
	}
	if got := cp.AttributedTotal(); got != cp.Makespan {
		t.Fatalf("attribution %v != makespan %v (acceptance allows 1%%; construction promises exact)", got, cp.Makespan)
	}
	var byClass time.Duration
	for _, ns := range cp.ByClass {
		byClass += ns
	}
	if byClass != cp.Makespan {
		t.Fatalf("class sums %v != makespan %v", byClass, cp.Makespan)
	}

	// The window must be the real one: earliest start / latest end over the
	// rank stage spans (container markers excluded, shared registry ignored).
	var lo, hi time.Duration
	first := true
	for _, s := range rep.Telemetry {
		if s.Rank == telemetry.SharedRank {
			continue
		}
		for _, sp := range s.Spans {
			if strings.HasPrefix(sp.Name, "phase.") || strings.HasPrefix(sp.Name, "supervise.") {
				continue
			}
			if first || sp.Start < lo {
				lo = sp.Start
			}
			if first || sp.End > hi {
				hi = sp.End
			}
			first = false
		}
	}
	if cp.Start != lo || cp.End != hi {
		t.Errorf("path window [%v,%v], spans cover [%v,%v]", cp.Start, cp.End, lo, hi)
	}
	if cp.CommFraction < 0 || cp.CommFraction > 1 || cp.WaitFraction < 0 || cp.WaitFraction > 1 {
		t.Errorf("fractions out of range: comm %g wait %g", cp.CommFraction, cp.WaitFraction)
	}

	// Artifact round-trip: the summary rides in distfdk-metrics/1 and the
	// validator enforces the same exact-sum invariant.
	var metrics bytes.Buffer
	if err := telemetry.WriteMetricsJSON(&metrics, rep.Telemetry); err != nil {
		t.Fatal(err)
	}
	mrep, err := telemetry.ValidateMetricsJSON(metrics.Bytes())
	if err != nil {
		t.Fatalf("metrics artifact with critical path invalid: %v", err)
	}
	if mrep.CriticalPath == nil {
		t.Fatal("metrics artifact missing the critical_path summary")
	}
	if mrep.CriticalPath.MakespanNs != int64(cp.Makespan) {
		t.Errorf("artifact makespan %d != computed %d", mrep.CriticalPath.MakespanNs, int64(cp.Makespan))
	}
	if !strings.Contains(rep.String(), "critical path:") {
		t.Error("ClusterReport summary missing the critical-path table")
	}
}

// Span batch tags must stay correct when the pipelined executor's stages
// close spans concurrently, each on its own goroutine: each batch yields
// exactly one span per working stage carrying its own batch index, with no
// duplicates or cross-talk (run under -race this also proves the span store
// is safe for concurrent closers).
func TestSpanBatchTagsConcurrentWorkers(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sink, _ := NewVolumeSink(sys)
	rep, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: src, Device: device.New("conc", 0, 2),
		Sink: sink, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slabs < 2 {
		t.Fatalf("want a multi-batch run, got %d slabs", rep.Slabs)
	}
	// Every batch back-projects and stores; load and filter may be idle on a
	// batch whose rows are already resident, but never twice busy.
	seen := map[string]map[int]int{}
	for _, sp := range reg.Snapshot().Spans {
		if seen[sp.Name] == nil {
			seen[sp.Name] = map[int]int{}
		}
		seen[sp.Name][sp.Batch]++
		if sp.End < sp.Start {
			t.Errorf("%s batch %d span inverted [%v,%v]", sp.Name, sp.Batch, sp.Start, sp.End)
		}
	}
	for _, stage := range []string{"load", "filter", "backproject", "store"} {
		for b, n := range seen[stage] {
			if b < 0 || b >= rep.Slabs || n != 1 {
				t.Errorf("stage %s batch %d recorded %d spans, want exactly 1 of batches 0..%d", stage, b, n, rep.Slabs-1)
			}
		}
	}
	for _, stage := range []string{"backproject", "store"} {
		if len(seen[stage]) != rep.Slabs {
			t.Errorf("%s spans cover %d batches, want %d (%v)", stage, len(seen[stage]), rep.Slabs, seen[stage])
		}
	}
}
