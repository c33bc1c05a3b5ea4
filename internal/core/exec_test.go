package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/mpi"
	"distfdk/internal/pipeline"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// Elastic back-projection (BPWorkers > 1) must be a pure scheduling change:
// the volume is bit-identical to the sequential stage, the device balance
// still returns to zero, and each detector row still crosses the link
// exactly once (the deeper ring changes retention, not traffic).
func TestElasticBackprojectionBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	run := func(workers, batches int) (*volume.Volume, *ReconReport, *device.Device) {
		p, err := NewPlan(sys, 1, 1, batches)
		if err != nil {
			t.Fatal(err)
		}
		sink, _ := NewVolumeSink(sys)
		dev := device.New("t", 0, 2)
		rep, err := ReconstructSingle(ReconOptions{
			Plan: p, Source: src, Device: dev, Sink: sink, BPWorkers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sink.V, rep, dev
	}

	for _, batches := range []int{4, 8} {
		want, wantRep, _ := run(1, batches)
		for _, workers := range []int{2, 4} {
			got, rep, dev := run(workers, batches)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("batches=%d workers=%d: voxel %d: elastic %g != sequential %g",
						batches, workers, i, got.Data[i], want.Data[i])
				}
			}
			if rep.Slabs != wantRep.Slabs {
				t.Fatalf("batches=%d workers=%d: %d slabs, want %d", batches, workers, rep.Slabs, wantRep.Slabs)
			}
			if rep.Ledger.H2DBytes != wantRep.Ledger.H2DBytes {
				t.Fatalf("batches=%d workers=%d: H2D %d bytes, sequential moved %d",
					batches, workers, rep.Ledger.H2DBytes, wantRep.Ledger.H2DBytes)
			}
			if dev.Allocated() != 0 {
				t.Fatalf("batches=%d workers=%d: device memory leaked: %d", batches, workers, dev.Allocated())
			}
		}
	}
}

// BPWorkers must compose with a constrained device: the deeper elastic ring
// charges the budget honestly and the reconstruction still matches.
func TestElasticBackprojectionOutOfCore(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, _ := NewPlan(sys, 1, 1, 8)
	seq, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: src, Device: device.New("seq", 0, 2), Sink: seq,
	}); err != nil {
		t.Fatal(err)
	}

	// Size the budget to what the elastic run needs: windowed ring + slab.
	releaseLag := pipeline.UpstreamCompletionLag(pipeline.DefaultQueueDepth, 4) // as in single.go
	ringBytes := 4 * int64(sys.NU) * int64(sys.NP) * int64(p.RingDepthWindow(0, releaseLag+1))
	budget := ringBytes + 4*p.SlabBytes()
	ela, _ := NewVolumeSink(sys)
	dev := device.New("ela", budget, 2)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: src, Device: dev, Sink: ela, BPWorkers: 4,
	}); err != nil {
		t.Fatalf("elastic run under budget %d: %v", budget, err)
	}
	stats, _ := volume.Compare(seq.V, ela.V)
	if stats.MaxAbs != 0 {
		t.Fatalf("elastic out-of-core result differs: %+v", stats)
	}
	if dev.Allocated() != 0 {
		t.Fatalf("device memory leaked: %d", dev.Allocated())
	}
}

// The windowed ring depth must dominate the single-batch depth and be
// monotone in the window.
func TestRingDepthWindow(t *testing.T) {
	p, _ := NewPlan(testSystem(), 1, 1, 8)
	prev := 0
	for w := 1; w <= 6; w++ {
		d := p.RingDepthWindow(0, w)
		if d < prev {
			t.Fatalf("window %d: depth %d shrank from %d", w, d, prev)
		}
		prev = d
	}
	if p.RingDepthWindow(0, 1) != p.RingDepth(0) {
		t.Fatalf("window 1 depth %d != RingDepth %d", p.RingDepthWindow(0, 1), p.RingDepth(0))
	}
	if p.RingDepthWindow(0, 0) != p.RingDepth(0) {
		t.Fatal("window < 1 should clamp to 1")
	}
}

// Both reductions of RunDistributed — chunk-pipelined (the default) and
// hierarchical — must assemble bit-identical volumes, pooled or not: the
// executor work is pure plumbing. (Reduce ≡ ReduceChunked at any chunk size
// is mpi's own TestReductionPathsBitIdentical.)
func TestDistributedReduceVariantsBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	run := func(hierarchical, pooled bool) *volume.Volume {
		prevPool := mpi.SetBufferPooling(pooled)
		defer mpi.SetBufferPooling(prevPool)
		p, _ := NewPlan(sys, 2, 2, 4)
		sink, _ := NewVolumeSink(sys)
		if _, err := RunDistributed(ClusterOptions{
			Plan: p, Source: src, Output: sink, Hierarchical: hierarchical, RanksPerNode: 2,
		}); err != nil {
			t.Fatalf("hierarchical=%v pooled=%v: %v", hierarchical, pooled, err)
		}
		return sink.V
	}

	want := run(false, false)
	for _, hierarchical := range []bool{false, true} {
		for _, pooled := range []bool{true, false} {
			got := run(hierarchical, pooled)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("hierarchical=%v pooled=%v: voxel %d differs from the chunked unpooled reduce",
						hierarchical, pooled, i)
				}
			}
		}
	}
}

// The chunked default must preserve the headline communication bound:
// total reduce traffic is still (Nr−1)·Vol bytes, just in more messages.
func TestDistributedChunkedReduceTraffic(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, _ := NewPlan(sys, 1, 4, 4)
	sink, _ := NewVolumeSink(sys)
	rep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink})
	if err != nil {
		t.Fatal(err)
	}
	volBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(sys.NZ)
	if got := rep.TotalReduceBytes(); got != 3*volBytes {
		t.Fatalf("reduce bytes %d, want %d", got, 3*volBytes)
	}
	var chunks int64
	for _, s := range rep.GroupStats {
		chunks += s.ReduceChunks
	}
	if chunks == 0 {
		t.Fatal("default reduction forwarded no chunk segments; chunking is not wired in")
	}
}

// aliasSink assembles slabs like VolumeSink and records where each slab's
// voxels lived.
type aliasSink struct {
	VolumeSink
	bufs map[*float32]int
}

func (s *aliasSink) WriteSlab(slab *volume.Volume) error {
	s.bufs[&slab.Data[0]]++
	return s.VolumeSink.WriteSlab(slab)
}

// A rank back-projects every batch into one slab buffer, zeroed per batch:
// the leader's sink sees the same storage each time, uneven last batch
// included, and the assembled volume is the one per-batch allocation gave.
func TestDistributedReusesSlabBuffer(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, err := NewPlan(sys, 1, 2, 5) // 24 slices in 5 batches: the last is short
	if err != nil {
		t.Fatal(err)
	}
	vs, _ := NewVolumeSink(sys)
	sink := &aliasSink{VolumeSink: VolumeSink{V: vs.V}, bufs: map[*float32]int{}}
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink}); err != nil {
		t.Fatal(err)
	}
	if len(sink.bufs) != 1 {
		t.Errorf("the leader stored slabs from %d buffers, want 1", len(sink.bufs))
	}
	for _, n := range sink.bufs {
		if n < 2 {
			t.Errorf("%d slabs stored: the plan did not exercise reuse", n)
		}
	}
	// Same plan through the single driver, which allocates per batch.
	p1, _ := NewPlan(sys, 1, 1, 5)
	ref, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{Plan: p1, Source: src, Device: device.New("ref", 0, 1), Sink: ref}); err != nil {
		t.Fatal(err)
	}
	stats, _ := volume.Compare(ref.V, sink.V)
	if stats.RMSE > 1e-5 { // float32 reduction reassociation only
		t.Fatalf("reused-buffer volume differs from the single driver's: %+v", stats)
	}
}
