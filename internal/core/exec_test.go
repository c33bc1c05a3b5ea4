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

// A rank back-projects every batch into one slab buffer, zeroed per batch,
// whichever executor runs it: the sink sees the same storage each time,
// uneven last batch included, and the assembled volume is the one-rank
// distributed run's byte for byte.
func TestDistributedReusesSlabBuffer(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	// 24 slices in 5 batches: four of 5 slices, the last of 4.
	oneBuffer := func(t *testing.T, sink *aliasSink) {
		t.Helper()
		if len(sink.bufs) != 1 {
			t.Errorf("slabs stored from %d buffers, want 1", len(sink.bufs))
		}
		for _, n := range sink.bufs {
			if n != 5 {
				t.Errorf("%d slabs stored from the buffer, want all 5", n)
			}
		}
	}
	newSink := func() *aliasSink {
		vs, _ := NewVolumeSink(sys)
		return &aliasSink{VolumeSink: VolumeSink{V: vs.V}, bufs: map[*float32]int{}}
	}

	// The serial executor, at a group leader.
	p, err := NewPlan(sys, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	dist := newSink()
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: dist}); err != nil {
		t.Fatal(err)
	}
	oneBuffer(t, dist)

	// The pipelined executor: the store stage hands the buffer back to the
	// kernel of the next batch.
	p1, _ := NewPlan(sys, 1, 1, 5)
	single := newSink()
	if _, err := ReconstructSingle(ReconOptions{Plan: p1, Source: src, Device: device.New("single", 0, 2), Sink: single}); err != nil {
		t.Fatal(err)
	}
	oneBuffer(t, single)
	twin, _ := NewVolumeSink(sys)
	if _, err := RunDistributed(ClusterOptions{Plan: p1, Source: src, Output: twin}); err != nil {
		t.Fatal(err)
	}
	for i := range twin.V.Data {
		if single.V.Data[i] != twin.V.Data[i] {
			t.Fatalf("voxel %d: pipelined single run %g, one-rank distributed run %g", i, single.V.Data[i], twin.V.Data[i])
		}
	}
	stats, _ := volume.Compare(single.V, dist.V)
	if stats.RMSE > 1e-5 { // float32 reduction reassociation only
		t.Fatalf("two-rank volume differs from the single driver's: %+v", stats)
	}
}
