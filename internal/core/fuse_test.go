package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/projection"
)

// The three executors of the rank program — serial (fused, one reusable
// slab), pipelined (unfused, a slab per batch) and elastic (fused in the
// upload stage, lagged ring release) — must produce the same volume to the
// last bit: FilterRowInto's rounding matches ApplyRow-then-FilterRow
// exactly, and fusion only moves where the filtered row is written, never
// what is written.
func TestExecutorsBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}

	run := func(name string, mutate func(*ReconOptions)) []float32 {
		t.Helper()
		sink, err := NewVolumeSink(sys)
		if err != nil {
			t.Fatal(err)
		}
		opts := ReconOptions{
			Plan: p, Source: src,
			Device: device.New(name, 0, 2),
			Sink:   sink,
		}
		mutate(&opts)
		if _, err := ReconstructSingle(opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return sink.V.Data
	}

	ref := run("pipelined", func(o *ReconOptions) {})
	executors := map[string]func(*ReconOptions){
		"pipelined": func(o *ReconOptions) {},
		"serial":    func(o *ReconOptions) { o.DisablePipeline = true },
		"elastic":   func(o *ReconOptions) { o.BPWorkers = 2 },
	}
	for name, executor := range executors {
		got := run(name, executor)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: voxel %d: %g != pipelined %g", name, i, got[i], ref[i])
			}
		}
	}
}
