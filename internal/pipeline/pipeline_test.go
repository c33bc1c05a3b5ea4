package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"distfdk/internal/telemetry"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("expected no-stages error")
	}
	if _, err := New(Stage{Name: "x"}); err == nil {
		t.Error("expected nil-fn error")
	}
}

// Every batch reaches every stage, and each stage sees the batches in order.
func TestDataFlowsThroughStagesInOrder(t *testing.T) {
	names := []string{"a", "b", "c"}
	seen := make([][]int, len(names)) // each stage appends only to its own
	stages := make([]Stage, len(names))
	for i, name := range names {
		stages[i] = Stage{Name: name, Fn: func(b int) error {
			seen[i] = append(seen[i], b)
			return nil
		}}
	}
	p, err := New(stages...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(4, nil); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if got := fmt.Sprint(seen[i]); got != "[0 1 2 3]" {
			t.Errorf("stage %s saw batches %s, want [0 1 2 3]", name, got)
		}
	}
}

func TestZeroBatchesAndNegative(t *testing.T) {
	p, _ := New(Stage{Name: "a", Fn: func(int) error { return nil }})
	if err := p.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(-1, nil); err == nil {
		t.Error("expected negative-batches error")
	}
}

func TestErrorPropagationKeepsLiveness(t *testing.T) {
	var downstream int
	var mu sync.Mutex
	p, _ := New(
		Stage{Name: "src", Fn: func(int) error { return nil }},
		Stage{Name: "mid", Fn: func(b int) error {
			if b == 1 {
				return errors.New("kaboom")
			}
			return nil
		}},
		Stage{Name: "sink", Fn: func(int) error {
			mu.Lock()
			downstream++
			mu.Unlock()
			return nil
		}},
	)
	// Many batches after the failure: upstream must not deadlock.
	err := p.Run(50, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected kaboom, got %v", err)
	}
	if !strings.Contains(err.Error(), `stage "mid" batch 1`) {
		t.Fatalf("error lacks context: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if downstream != 1 { // only batch 0 made it through
		t.Fatalf("downstream processed %d batches, want 1", downstream)
	}
}

// The whole point of the pipeline: stages overlap, so total wall time is
// far below the serial sum. 5 stages × 6 batches × 10ms serialises to
// 300ms; pipelined it is ~(6+4)×10ms = 100ms. Assert a generous midpoint.
func TestStagesOverlap(t *testing.T) {
	const d = 10 * time.Millisecond
	mk := func(name string) Stage {
		return Stage{Name: name, Fn: func(int) error {
			time.Sleep(d)
			return nil
		}}
	}
	reg := telemetry.NewRegistry()
	p, _ := New(mk("load"), mk("filter"), mk("bp"), mk("mpi"), mk("store"))
	p.Telemetry = reg
	start := time.Now()
	if err := p.Run(6, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if serial := 30 * d; elapsed > serial*3/4 {
		t.Fatalf("pipeline took %v, want well under serial %v", elapsed, serial)
	}
	if got := len(reg.Spans()); got != 30 {
		t.Fatalf("traced %d spans, want 30", got)
	}
	busy := telemetry.ComputeSpanStats(reg.Spans()).Busy
	for _, stage := range []string{"load", "filter", "bp", "mpi", "store"} {
		if busy[stage] < 6*d*8/10 {
			t.Fatalf("stage %s busy %v, want ≈ %v", stage, busy[stage], 6*d)
		}
	}
}

func TestQueueDepthBoundsBuffering(t *testing.T) {
	// A slow consumer throttles the producer: when the producer finishes a
	// batch, the batches it made that the consumer has not finished are at
	// most that one, queueDepth in the queue and one in the consumer's hands.
	var mu sync.Mutex
	produced, consumed := 0, 0
	maxLead := 0
	p, _ := New(
		Stage{Name: "fast", Fn: func(int) error {
			mu.Lock()
			produced++
			lead := produced - consumed
			if lead > maxLead {
				maxLead = lead
			}
			mu.Unlock()
			return nil
		}},
		Stage{Name: "slow", Fn: func(int) error {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			consumed++
			mu.Unlock()
			return nil
		}},
	)
	if err := p.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	if bound := queueDepth + 2; maxLead > bound {
		t.Fatalf("producer ran %d batches ahead, bound is %d at depth %d", maxLead, bound, queueDepth)
	}
}

// A failure stops the work upstream of it: a store that fails at batch 1 of
// 1 000 must not let the first stage go on producing batches nothing will
// store. When the last stage fails, the first stage can have been invoked on
// at most the 2 batches the last stage took, the 2·queueDepth waiting in the
// two queues, and one batch in the hands of each of the two upstream stages:
// 2 + 2·queueDepth + 2 invocations. The failing stage's error is returned.
func TestFailedStageStopsUpstream(t *testing.T) {
	const nBatches = 1000
	first := 0 // written by the first stage's goroutine, read after Run
	p, _ := New(
		Stage{Name: "load", Fn: func(int) error { first++; return nil }},
		Stage{Name: "filter", Fn: func(int) error { return nil }},
		Stage{Name: "store", Fn: func(b int) error {
			if b == 1 {
				return errors.New("disk full")
			}
			return nil
		}},
	)
	err := p.Run(nBatches, nil)
	if err == nil || !strings.Contains(err.Error(), `stage "store" batch 1: disk full`) {
		t.Fatalf("want the store error, got %v", err)
	}
	if bound := 2 + 2*queueDepth + 2; first > bound {
		t.Fatalf("first stage ran %d of %d batches after the store failed at batch 1; bound %d", first, nBatches, bound)
	}
}

// enter is called once per (stage, batch), idle invocations included, in
// batch order within each stage and before the invocation's span opens. Its
// error fails that stage unwrapped: the stage and everything upstream of it
// stop, and downstream finishes the prefix the stage forwarded.
func TestRunEnterHook(t *testing.T) {
	var mu sync.Mutex
	entered := map[string][]int{}
	ran := map[string][]int{}
	at := map[string]time.Duration{} // when enter saw "stage/batch"
	reg := telemetry.NewRegistry()
	note := func(name string) StageFunc {
		return func(b int) error {
			mu.Lock()
			ran[name] = append(ran[name], b)
			mu.Unlock()
			if name == "x" && b%2 == 1 {
				return Idle
			}
			return nil
		}
	}
	p, err := New(Stage{Name: "x", Fn: note("x")}, Stage{Name: "y", Fn: note("y")}, Stage{Name: "z", Fn: note("z")})
	if err != nil {
		t.Fatal(err)
	}
	p.Telemetry = reg
	stop := errors.New("stop")
	err = p.Run(6, func(stage string, b int) error {
		mu.Lock()
		defer mu.Unlock()
		entered[stage] = append(entered[stage], b)
		at[fmt.Sprintf("%s/%d", stage, b)] = reg.SinceEpoch(time.Now())
		if stage == "y" && b == 2 {
			return stop
		}
		return nil
	})
	if err == nil || err.Error() != "stop" || !errors.Is(err, stop) {
		t.Fatalf("enter's error must fail the run unwrapped, got %v", err)
	}
	if got := fmt.Sprint(entered["y"], ran["y"], entered["z"], ran["z"]); got != "[0 1 2] [0 1] [0 1] [0 1]" {
		t.Errorf("y entered, y ran, z entered, z ran = %s, want [0 1 2] [0 1] [0 1] [0 1]", got)
	}
	for i, b := range entered["x"] {
		if b != i || ran["x"][i] != i {
			t.Fatalf("x entered %v and ran %v, want both in batch order", entered["x"], ran["x"])
		}
	}
	spans := reg.Spans()
	for _, sp := range spans {
		if t0, ok := at[fmt.Sprintf("%s/%d", sp.Name, sp.Batch)]; !ok || t0 > sp.Start {
			t.Errorf("span %s/%d opened at %v, enter called at %v (called: %v)", sp.Name, sp.Batch, sp.Start, t0, ok)
		}
		if sp.Name == "x" && sp.Batch%2 == 1 || sp.Name == "y" && sp.Batch == 2 {
			t.Errorf("span %s/%d recorded for an idle or refused invocation", sp.Name, sp.Batch)
		}
	}
}

// An idle stage call records no span, and its batch still goes on to the
// next stage in order.
func TestIdleStageRecordsNoSpan(t *testing.T) {
	var sawB, sawC []int
	p, err := New(
		Stage{Name: "a", Fn: func(int) error { return nil }},
		Stage{Name: "b", Fn: func(b int) error {
			sawB = append(sawB, b)
			if b%2 == 1 {
				return Idle
			}
			return nil
		}},
		Stage{Name: "c", Fn: func(b int) error { sawC = append(sawC, b); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.Telemetry = reg
	if err := p.Run(4, nil); err != nil {
		t.Fatalf("Idle surfaced as an error: %v", err)
	}
	if got := fmt.Sprint(sawB, sawC); got != "[0 1 2 3] [0 1 2 3]" {
		t.Errorf("b and c saw batches %s, want [0 1 2 3] [0 1 2 3]", got)
	}
	n := 0
	for _, sp := range reg.Spans() {
		if sp.Name == "b" {
			n++
			if sp.Batch%2 == 1 {
				t.Errorf("idle call on batch %d recorded a span", sp.Batch)
			}
		}
	}
	if n != 2 {
		t.Errorf("stage b recorded %d spans, want 2", n)
	}
}
