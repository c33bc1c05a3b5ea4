package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

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
