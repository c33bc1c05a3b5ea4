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

func TestDataFlowsThroughStagesInOrder(t *testing.T) {
	var mu sync.Mutex
	got := []string{}
	p, err := New(
		Stage{Name: "a", Fn: func(b int, in any) (any, error) {
			return fmt.Sprintf("b%d", b), nil
		}},
		Stage{Name: "b", Fn: func(b int, in any) (any, error) {
			return in.(string) + "+", nil
		}},
		Stage{Name: "c", Fn: func(b int, in any) (any, error) {
			mu.Lock()
			got = append(got, in.(string))
			mu.Unlock()
			return nil, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(4); err != nil {
		t.Fatal(err)
	}
	want := []string{"b0+", "b1+", "b2+", "b3+"}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order: got %v, want %v", got, want)
		}
	}
}

func TestZeroBatchesAndNegative(t *testing.T) {
	p, _ := New(Stage{Name: "a", Fn: func(int, any) (any, error) { return nil, nil }})
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(-1); err == nil {
		t.Error("expected negative-batches error")
	}
}

func TestErrorPropagationKeepsLiveness(t *testing.T) {
	var downstream int
	var mu sync.Mutex
	p, _ := New(
		Stage{Name: "src", Fn: func(b int, in any) (any, error) { return b, nil }},
		Stage{Name: "mid", Fn: func(b int, in any) (any, error) {
			if b == 1 {
				return nil, errors.New("kaboom")
			}
			return in, nil
		}},
		Stage{Name: "sink", Fn: func(b int, in any) (any, error) {
			mu.Lock()
			downstream++
			mu.Unlock()
			return nil, nil
		}},
	)
	// Many batches after the failure: upstream must not deadlock.
	err := p.Run(50)
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
		return Stage{Name: name, Fn: func(int, any) (any, error) {
			time.Sleep(d)
			return nil, nil
		}}
	}
	reg := telemetry.NewRegistry()
	p, _ := New(mk("load"), mk("filter"), mk("bp"), mk("mpi"), mk("store"))
	p.Telemetry = reg
	start := time.Now()
	if err := p.Run(6); err != nil {
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
		Stage{Name: "fast", Fn: func(int, any) (any, error) {
			mu.Lock()
			produced++
			lead := produced - consumed
			if lead > maxLead {
				maxLead = lead
			}
			mu.Unlock()
			return nil, nil
		}},
		Stage{Name: "slow", Fn: func(int, any) (any, error) {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			consumed++
			mu.Unlock()
			return nil, nil
		}},
	)
	if err := p.Run(20); err != nil {
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
		Stage{Name: "load", Fn: func(b int, _ any) (any, error) { first++; return b, nil }},
		Stage{Name: "filter", Fn: func(_ int, in any) (any, error) { return in, nil }},
		Stage{Name: "store", Fn: func(b int, _ any) (any, error) {
			if b == 1 {
				return nil, errors.New("disk full")
			}
			return nil, nil
		}},
	)
	err := p.Run(nBatches)
	if err == nil || !strings.Contains(err.Error(), `stage "store" batch 1: disk full`) {
		t.Fatalf("want the store error, got %v", err)
	}
	if bound := 2 + 2*queueDepth + 2; first > bound {
		t.Fatalf("first stage ran %d of %d batches after the store failed at batch 1; bound %d", first, nBatches, bound)
	}
}

// RunSerial is Run without the overlap: same stages, same payload flow,
// same spans and error wrapping, but batch b leaves the last stage before
// batch b+1 enters the first, with the enter hook at each boundary.
func TestRunSerialOrderHookAndErrors(t *testing.T) {
	var trail []string
	note := func(s string) StageFunc {
		return func(b int, in any) (any, error) {
			trail = append(trail, fmt.Sprintf("%s%d", s, b))
			if s == "y" && b == 2 {
				return nil, errors.New("boom")
			}
			return b, nil
		}
	}
	p, err := New(Stage{Name: "x", Fn: note("x")}, Stage{Name: "y", Fn: note("y")})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.Telemetry = reg
	enter := func(b int) error { trail = append(trail, fmt.Sprintf("enter%d", b)); return nil }
	err = p.RunSerial(4, enter)
	if err == nil || !strings.Contains(err.Error(), `stage "y" batch 2`) {
		t.Fatalf("stage error not wrapped with stage and batch: %v", err)
	}
	if got, want := strings.Join(trail, " "), "enter0 x0 y0 enter1 x1 y1 enter2 x2 y2"; got != want {
		t.Fatalf("serial order %q, want %q", got, want)
	}
	// The failing call's span is closed and recorded like any other.
	if spans := reg.Spans(); len(spans) != 6 || spans[5].Name != "y" || spans[5].Batch != 2 {
		t.Fatalf("spans %+v, want 6 ending in the failing y/2", spans)
	}

	stop := errors.New("stop")
	if err := p.RunSerial(4, func(b int) error { return stop }); err != stop {
		t.Fatalf("enter's error must end the run unwrapped, got %v", err)
	}
}

// An idle stage call records no span and hands its input on unchanged, in
// both executors.
func TestIdleStageRecordsNoSpan(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var got []any
		p, err := New(
			Stage{Name: "a", Fn: func(b int, _ any) (any, error) { return b * 10, nil }},
			Stage{Name: "b", Fn: func(b int, in any) (any, error) {
				if b%2 == 1 {
					return nil, Idle
				}
				return in.(int) + 1, nil
			}},
			Stage{Name: "c", Fn: func(_ int, in any) (any, error) { got = append(got, in); return nil, nil }},
		)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		p.Telemetry = reg
		if serial {
			err = p.RunSerial(4, nil)
		} else {
			err = p.Run(4)
		}
		if err != nil {
			t.Fatalf("serial=%v: Idle surfaced as an error: %v", serial, err)
		}
		if fmt.Sprint(got) != "[1 10 21 30]" {
			t.Errorf("serial=%v: payloads %v, want [1 10 21 30]", serial, got)
		}
		n := 0
		for _, sp := range reg.Spans() {
			if sp.Name == "b" {
				n++
				if sp.Batch%2 == 1 {
					t.Errorf("serial=%v: idle call on batch %d recorded a span", serial, sp.Batch)
				}
			}
		}
		if n != 2 {
			t.Errorf("serial=%v: stage b recorded %d spans, want 2", serial, n)
		}
	}
}
