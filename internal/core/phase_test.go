package core

import (
	"strings"
	"testing"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
)

// TestPhaseMarkerSpans pins the scenario-phase instrumentation: a
// distributed run whose injector carries a phase schedule records one
// phase.warmup/phase.inject/phase.recovery span per rank, in order and
// non-overlapping, with the ranks' stages pipelined.
func TestPhaseMarkerSpans(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A straggler rule scoped to the inject phase: it must fire there (and
	// only there) without ever failing an operation, so the run completes
	// while still proving the phase filter gates the rule.
	in := fault.NewInjector(5,
		fault.Rule{Op: fault.OpLoad, Rank: fault.AnyRank, Count: fault.Every,
			Delay: time.Millisecond, Phase: fault.PhaseInject})
	in.SetPhaseSchedule(fault.PhaseSchedule{WarmupBatches: 1, InjectBatches: 2})
	run := telemetry.NewRun(p.Ranks())
	sink, _ := NewVolumeSink(sys)
	_, err = RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: sink,
		FaultInjector:      in,
		CollectiveDeadline: 5 * time.Second,
		Retry:              &fault.RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Microsecond, Seed: 5},
		Telemetry:          run,
	})
	if err != nil {
		t.Fatalf("phase-scoped transient chaos must be absorbed: %v", err)
	}
	if in.Fired() == 0 {
		t.Fatal("inject-phase rule never fired")
	}

	for r := 0; r < p.Ranks(); r++ {
		snap := run.Rank(r).Snapshot()
		var phases []telemetry.Span
		for _, sp := range snap.Spans {
			if strings.HasPrefix(sp.Name, "phase.") {
				phases = append(phases, sp)
			}
		}
		want := []string{"phase.warmup", "phase.inject", "phase.recovery"}
		if len(phases) != len(want) {
			t.Fatalf("rank %d phase spans = %v, want %v", r, phases, want)
		}
		for i, sp := range phases {
			if sp.Name != want[i] {
				t.Errorf("rank %d phase span %d = %q, want %q", r, i, sp.Name, want[i])
			}
			if i > 0 && sp.Start < phases[i-1].End {
				t.Errorf("rank %d phase spans overlap: %v then %v", r, phases[i-1], sp)
			}
		}
	}
}
