package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

var errTest = errors.New("phase test failure")

func TestPhaseScheduleWindows(t *testing.T) {
	ps := PhaseSchedule{WarmupBatches: 1, InjectBatches: 2}
	want := []string{PhaseWarmup, PhaseInject, PhaseInject, PhaseRecovery, PhaseRecovery}
	for b, w := range want {
		if got := ps.Phase(b); got != w {
			t.Errorf("Phase(%d) = %q, want %q", b, got, w)
		}
	}
	// InjectBatches <= 0 extends the inject window to the end of the run.
	open := PhaseSchedule{WarmupBatches: 2}
	for b := 2; b < 10; b++ {
		if got := open.Phase(b); got != PhaseInject {
			t.Errorf("open schedule Phase(%d) = %q, want inject", b, got)
		}
	}
}

func TestPhaseTransitionsFireExactlyOnce(t *testing.T) {
	in := NewInjector(7)
	in.SetPhaseSchedule(PhaseSchedule{WarmupBatches: 1, InjectBatches: 2})
	// Rank 0's load stage walks every boundary in order; replaying a
	// boundary (a supervised restart re-entering batch 0) must not move it
	// back into an earlier phase.
	var got []string
	for _, b := range []int{0, 1, 2, 3, 0, 1, 3} {
		if err := in.BatchStart(0, b); err != nil {
			t.Fatalf("BatchStart: %v", err)
		}
		got = append(got, in.PhaseOf(0, OpLoad))
	}
	want := []string{PhaseWarmup, PhaseInject, PhaseInject, PhaseRecovery, PhaseRecovery, PhaseRecovery, PhaseRecovery}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("load phases %v, want %v", got, want)
	}
	// The other stages have served nothing yet: they are in batch 0's phase.
	if ph := in.PhaseOf(0, "reduce"); ph != PhaseWarmup {
		t.Errorf("PhaseOf(0, reduce) = %q, want warmup", ph)
	}
}

func TestPhaseTransitionsSkipIntermediateBoundary(t *testing.T) {
	// A rank that skips checkpointed batches can jump straight from its
	// first boundary into recovery.
	in := NewInjector(1)
	in.SetPhaseSchedule(PhaseSchedule{WarmupBatches: 1, InjectBatches: 1})
	if err := in.BatchStart(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.BatchStart(2, 3); err != nil {
		t.Fatal(err)
	}
	if ph := in.PhaseOf(2, OpLoad); ph != PhaseRecovery {
		t.Fatalf("PhaseOf(2, load) = %q, want recovery", ph)
	}
}

// An operation is judged in the phase of the batch its own stage serves:
// with the load stage already in recovery, a receive of the reduce stage
// serving an inject batch is still an inject receive, and a store of the
// store stage serving a warmup batch a warmup store.
func TestPhaseFollowsTheStageBatch(t *testing.T) {
	in := NewInjector(3,
		Rule{Op: OpRecv, Rank: AnyRank, Count: Every, Class: Transient, Phase: PhaseInject},
		Rule{Op: OpStore, Rank: 1, Count: Every, Class: Transient, Phase: PhaseInject},
		Rule{Op: OpLoad, Rank: 1, Count: Every, Class: Transient, Phase: PhaseInject})
	in.SetPhaseSchedule(PhaseSchedule{WarmupBatches: 1, InjectBatches: 1})
	if err := in.BatchStart(1, 2); err != nil {
		t.Fatal(err)
	}
	in.Serve(1, "reduce", 1)
	in.Serve(1, OpStore, 0)
	if err := in.Hit(OpLoad, 1); err != nil {
		t.Errorf("a recovery-batch load faulted: %v", err)
	}
	if err := in.BeforeRecv(1, 0, 0); err == nil {
		t.Error("an inject-batch receive did not fault")
	}
	if err := in.Hit(OpStore, 1); err != nil {
		t.Errorf("a warmup-batch store faulted: %v", err)
	}
	// Rank 0's reduce stage is still in warmup, whatever rank 1 serves.
	if err := in.BeforeRecv(0, 1, 0); err != nil {
		t.Errorf("rank 0's warmup receive faulted: %v", err)
	}
	in.Serve(1, "reduce", 2)
	in.Serve(1, "reduce", 1) // a replayed batch never moves the stage back
	if err := in.BeforeRecv(1, 0, 0); err != nil {
		t.Errorf("a recovery-batch receive faulted: %v", err)
	}
	if f := in.Fired(); f != 1 {
		t.Errorf("Fired = %d, want 1", f)
	}
}

func TestPhaseScopedRules(t *testing.T) {
	in := NewInjector(3, Rule{
		Op: OpLoad, Rank: AnyRank, Count: Every, Class: Transient, Phase: PhaseInject,
	})
	in.SetPhaseSchedule(PhaseSchedule{WarmupBatches: 1, InjectBatches: 1})

	// Batch 0: warmup — loads pass.
	if err := in.BatchStart(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(OpLoad, 0); err != nil {
		t.Fatalf("warmup load faulted: %v", err)
	}
	// Batch 1: inject — every load faults.
	if err := in.BatchStart(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(OpLoad, 0); err == nil {
		t.Fatal("inject-phase load did not fault")
	}
	// Batch 2: recovery — loads pass again, even though Count: Every.
	if err := in.BatchStart(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(OpLoad, 0); err != nil {
		t.Fatalf("recovery load faulted: %v", err)
	}
	if f := in.Fired(); f != 1 {
		t.Errorf("Fired = %d, want 1", f)
	}
}

func TestPhaseScopedRuleKeepsOccurrenceNumbering(t *testing.T) {
	// The phase filter must not renumber occurrences: a rule pinned to
	// occurrence 2 fires iff occurrence 2 happens inside its phase,
	// counting warmup occurrences too.
	in := NewInjector(3,
		Rule{Op: OpLoad, Rank: 0, Nth: 2, Class: Transient, Phase: PhaseInject})
	in.SetPhaseSchedule(PhaseSchedule{WarmupBatches: 1})
	if err := in.BatchStart(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(OpLoad, 0); err != nil { // occurrence 1, warmup
		t.Fatalf("occurrence 1 faulted: %v", err)
	}
	if err := in.BatchStart(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := in.Hit(OpLoad, 0); err == nil { // occurrence 2, inject
		t.Fatal("occurrence 2 in inject phase did not fault")
	}
	if err := in.Hit(OpLoad, 0); err != nil { // occurrence 3: rule spent
		t.Fatalf("occurrence 3 faulted: %v", err)
	}
}

func TestPhaseOfWithoutSchedule(t *testing.T) {
	in := NewInjector(1)
	if ph := in.PhaseOf(0, OpLoad); ph != "" {
		t.Errorf("PhaseOf without schedule = %q, want empty", ph)
	}
	var nilInj *Injector
	if ph := nilInj.PhaseOf(0, OpLoad); ph != "" {
		t.Errorf("nil injector PhaseOf = %q, want empty", ph)
	}
	nilInj.Serve(0, "reduce", 1) // inert
}

func TestRetryBackoffCapSaturation(t *testing.T) {
	// Past the attempt where BaseDelay·2^(n−1) crosses MaxDelay the
	// backoff must saturate: every later attempt draws from the same
	// jitter window [cap/2, cap] and never exceeds the cap.
	p := &RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 11}
	rng := rand.New(rand.NewSource(p.Seed))
	for attempt := 1; attempt <= 64; attempt++ {
		d := p.backoff(attempt, rng)
		if d > p.MaxDelay {
			t.Fatalf("attempt %d backoff %v exceeds cap %v", attempt, d, p.MaxDelay)
		}
		if attempt >= 4 && d < p.MaxDelay/2 {
			t.Fatalf("attempt %d backoff %v below saturated jitter floor %v",
				attempt, d, p.MaxDelay/2)
		}
	}
}

func TestRetryPolicyZeroAttemptsUsesDefaults(t *testing.T) {
	// MaxAttempts <= 0 is not "never run": it means DefaultRetryAttempts.
	for _, maxAttempts := range []int{0, -1} {
		p := &RetryPolicy{MaxAttempts: maxAttempts,
			BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
		calls := 0
		err := p.Do(func() error { calls++; return markTransient(errTest) })
		if err == nil {
			t.Fatalf("MaxAttempts=%d: transient error retried into success?", maxAttempts)
		}
		if calls != DefaultRetryAttempts {
			t.Errorf("MaxAttempts=%d: op ran %d times, want DefaultRetryAttempts=%d",
				maxAttempts, calls, DefaultRetryAttempts)
		}
	}
}

func TestRetryPolicySingleAttempt(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 1}
	calls := 0
	err := p.Do(func() error { calls++; return markTransient(errTest) })
	if err == nil || calls != 1 {
		t.Fatalf("MaxAttempts=1: calls=%d err=%v, want one failing attempt", calls, err)
	}
}
