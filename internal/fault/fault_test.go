package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func newTestRNG(p *RetryPolicy) *rand.Rand { return rand.New(rand.NewSource(p.Seed)) }

func TestRuleOccurrenceWindows(t *testing.T) {
	cases := []struct {
		rule Rule
		want map[int]bool // occurrence -> fires
	}{
		{Rule{Op: OpLoad, Rank: AnyRank, Nth: 3}, map[int]bool{2: false, 3: true, 4: false}},
		{Rule{Op: OpLoad, Rank: AnyRank}, map[int]bool{1: true, 2: false}},
		{Rule{Op: OpLoad, Rank: AnyRank, Nth: 2, Count: 3}, map[int]bool{1: false, 2: true, 4: true, 5: false}},
		{Rule{Op: OpLoad, Rank: AnyRank, Nth: 4, Count: Every}, map[int]bool{3: false, 4: true, 100: true}},
	}
	for i, tc := range cases {
		for n, want := range tc.want {
			if got := tc.rule.matches(OpLoad, 7, n); got != want {
				t.Errorf("case %d: occurrence %d fires=%v, want %v", i, n, got, want)
			}
		}
		if tc.rule.matches(OpStore, 7, 1) {
			t.Errorf("case %d: rule for %s matched %s", i, tc.rule.Op, OpStore)
		}
	}
	ranked := Rule{Op: OpSend, Rank: 2, Nth: 1, Count: Every}
	if ranked.matches(OpSend, 3, 1) || !ranked.matches(OpSend, 2, 1) {
		t.Error("rank matching broken")
	}
}

// The injector is a pure function of (rules, per-op-rank counters): two
// injectors with the same schedule fire identically over any interleaving
// of per-rank streams.
func TestInjectorDeterministic(t *testing.T) {
	rules := []Rule{
		{Op: OpLoad, Rank: 1, Nth: 2, Count: 2, Class: Transient},
		{Op: OpStore, Rank: AnyRank, Nth: 3, Class: Permanent},
	}
	trace := func() []string {
		in := NewInjector(42, rules...)
		var out []string
		for i := 0; i < 6; i++ {
			for rank := 0; rank < 3; rank++ {
				err := in.Hit(OpLoad, rank)
				out = append(out, fmt.Sprintf("load r%d: %v", rank, err))
				err = in.Hit(OpStore, rank)
				out = append(out, fmt.Sprintf("store r%d: %v", rank, err))
			}
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestInjectedErrorTyping(t *testing.T) {
	in := NewInjector(1, Rule{Op: OpLoad, Rank: AnyRank, Class: Transient})
	err := in.Hit(OpLoad, 4)
	if err == nil {
		t.Fatal("rule did not fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Error("injected error does not match ErrInjected")
	}
	if !IsTransient(err) {
		t.Error("transient injected error not classified transient")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != OpLoad || fe.Rank != 4 || fe.N != 1 {
		t.Errorf("fault coordinates wrong: %+v", fe)
	}
	perm := NewInjector(1, Rule{Op: OpSend, Rank: AnyRank, Class: Permanent})
	if err := perm.Hit(OpSend, 0); IsTransient(err) {
		t.Error("permanent injected error classified transient")
	}
	if in.Fired() != 1 || perm.Fired() != 1 {
		t.Errorf("Fired counts wrong: %d, %d", in.Fired(), perm.Fired())
	}
}

// markTransient wraps err so IsTransient reports true, preserving the
// original chain for errors.Is/As: a caller's own transient error. Wrapping
// nil returns nil.
func markTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err}
}

type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

func TestIsTransientClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
	plain := errors.New("disk on fire")
	if IsTransient(plain) {
		t.Error("unclassified error must default to permanent")
	}
	marked := markTransient(plain)
	if !IsTransient(marked) {
		t.Error("markTransient not transient")
	}
	if !errors.Is(marked, plain) {
		t.Error("markTransient broke the error chain")
	}
	wrapped := fmt.Errorf("rank 3 batch 2 load: %w", marked)
	if !IsTransient(wrapped) {
		t.Error("classification must survive wrapping")
	}
	if markTransient(nil) != nil {
		t.Error("markTransient(nil) must be nil")
	}
}

func TestRetryPolicyAbsorbsTransients(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, Seed: 9}
	calls := 0
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return &Error{Class: Transient, Op: OpLoad}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on 3rd", err, calls)
	}
}

func TestRetryPolicyStopsOnPermanent(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	boom := &Error{Class: Permanent, Op: OpStore}
	err := p.Do(func() error { calls++; return boom })
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error chain lost: %v", err)
	}
	// Unclassified errors behave like permanent ones.
	calls = 0
	if _ = p.Do(func() error { calls++; return errors.New("eh") }); calls != 1 {
		t.Fatalf("unclassified error retried %d times", calls)
	}
}

func TestRetryPolicyExhaustion(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, Seed: 5}
	calls := 0
	err := p.Do(func() error { calls++; return &Error{Class: Transient, Op: OpLoad} })
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3", calls)
	}
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("exhaustion must return the last error's chain, got %v", err)
	}
	// A nil policy runs exactly once.
	var nilP *RetryPolicy
	calls = 0
	_ = nilP.Do(func() error { calls++; return &Error{Class: Transient} })
	if calls != 1 {
		t.Fatalf("nil policy made %d attempts", calls)
	}
}

func TestRetryBackoffCappedAndJittered(t *testing.T) {
	p := &RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 11}
	rngA := newTestRNG(p)
	for attempt := 1; attempt <= 10; attempt++ {
		d := p.backoff(attempt, rngA)
		if d > 4*time.Millisecond {
			t.Fatalf("attempt %d backoff %v exceeds cap", attempt, d)
		}
		if d <= 0 {
			t.Fatalf("attempt %d backoff %v not positive", attempt, d)
		}
	}
	// Same seed, same jitter schedule.
	seq := func() []time.Duration {
		rng := newTestRNG(p)
		var out []time.Duration
		for a := 1; a <= 5; a++ {
			out = append(out, p.backoff(a, rng))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

type memSink struct {
	slabs int
}

func (m *memSink) WriteSlab(*volume.Volume) error { m.slabs++; return nil }

func TestSourceAndSinkWrappers(t *testing.T) {
	full, _ := projection.NewStack(4, 2, 8)
	src := Source(&projection.MemorySource{Full: full},
		NewInjector(3, Rule{Op: OpLoad, Rank: 1, Nth: 2, Class: Transient}), 1)
	if nu, np, nv := src.Dims(); nu != 4 || np != 2 || nv != 8 {
		t.Fatalf("Dims passthrough broken: %d %d %d", nu, np, nv)
	}
	rows := geometry.RowRange{Lo: 0, Hi: 4}
	if _, err := src.LoadRows(rows, 0, 2); err != nil {
		t.Fatalf("first load must pass: %v", err)
	}
	if _, err := src.LoadRows(rows, 0, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("second load must fail injected, got %v", err)
	}
	if _, err := src.LoadRows(rows, 0, 2); err != nil {
		t.Fatalf("third load must pass: %v", err)
	}

	ms := &memSink{}
	sink := Sink(ms, NewInjector(3, Rule{Op: OpStore, Rank: 0, Class: Permanent}), 0)
	slab, _ := volume.NewSlab(2, 2, 1, 0)
	if err := sink.WriteSlab(slab); !errors.Is(err, ErrInjected) {
		t.Fatalf("first store must fail injected, got %v", err)
	}
	if err := sink.WriteSlab(slab); err != nil || ms.slabs != 1 {
		t.Fatalf("second store must reach the sink: err=%v slabs=%d", err, ms.slabs)
	}
}
