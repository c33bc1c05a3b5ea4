package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/projection"
)

// The two executors of the rank program — serial (fused, one reusable
// slab) and pipelined (unfused, a slab per batch) — must produce the same
// volume to the last bit at every device width: FilterRowInto's rounding
// matches ApplyRow-then-FilterRow exactly, fusion only moves where the
// filtered row is written, never what is written, and the width only cuts
// the filter's rows and the kernel's tiles among goroutines.
func TestExecutorsBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}

	var ref []float32
	for _, workers := range []int{1, 3} {
		for _, serial := range []bool{false, true} {
			sink, err := NewVolumeSink(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReconstructSingle(ReconOptions{
				Plan: p, Source: src, Device: device.New("exec", 0, workers),
				Sink: sink, DisablePipeline: serial,
			}); err != nil {
				t.Fatalf("workers=%d serial=%v: %v", workers, serial, err)
			}
			if ref == nil {
				ref = sink.V.Data
				continue
			}
			for i := range ref {
				if sink.V.Data[i] != ref[i] {
					t.Fatalf("workers=%d serial=%v: voxel %d: %g != pipelined width 1 %g",
						workers, serial, i, sink.V.Data[i], ref[i])
				}
			}
		}
	}
}
