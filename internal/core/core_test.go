package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func testSystem() *geometry.System {
	return &geometry.System{
		DSO: 250, DSD: 350,
		NU: 48, NV: 40, DU: 0.5, DV: 0.5,
		NP: 32,
		NX: 24, NY: 24, NZ: 24, DX: 0.5, DY: 0.5, DZ: 0.5,
	}
}

const fovScale = 5.0

func sheppStack(t testing.TB, sys *geometry.System) *projection.Stack {
	t.Helper()
	st, err := forward.Project(sys, phantom.SheppLogan(), fovScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// reference reconstructs monolithically: filter every row, then one kernel
// launch over the full volume.
func reference(t testing.TB, sys *geometry.System, st *projection.Stack, w filter.Window) *volume.Volume {
	t.Helper()
	st = &projection.Stack{NU: st.NU, NP: st.NP, NV: st.NV, Data: append([]float32(nil), st.Data...)}
	fdk, err := NewFilter(sys, w)
	if err != nil {
		t.Fatal(err)
	}
	vOf := func(i int) int { return i / st.NP }
	if err := fdk.FilterRows(st.Data, st.NV*st.NP, vOf, 1); err != nil {
		t.Fatal(err)
	}
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	backprojectAll(t, device.New("ref", 0, 2), sys, st, vol)
	return vol
}

// backprojectAll back-projects every row and projection of st into vol in
// one launch, from a ring as tall as the detector.
func backprojectAll(t testing.TB, dev *device.Device, sys *geometry.System, st *projection.Stack, vol *volume.Volume) {
	t.Helper()
	ring, err := device.NewProjRing(dev, st.NU, st.NP, st.NV)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	if err := ring.LoadRows(st, st.Rows()); err != nil {
		t.Fatal(err)
	}
	if err := backproject.Streaming(dev, ring, KernelMatrices(sys, 0, sys.NP), vol, st.Rows()); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlanValidation(t *testing.T) {
	sys := testSystem()
	if _, err := NewPlan(sys, 0, 1, 8); err == nil {
		t.Error("expected Ng error")
	}
	if _, err := NewPlan(sys, 1, 0, 8); err == nil {
		t.Error("expected Nr error")
	}
	if _, err := NewPlan(sys, 1, 5, 8); err == nil {
		t.Error("expected NP divisibility error")
	}
	if _, err := NewPlan(sys, 100, 1, 8); err == nil {
		t.Error("expected Ng>NZ error")
	}
	bad := *sys
	bad.DSO = 0
	if _, err := NewPlan(&bad, 1, 1, 8); err == nil {
		t.Error("expected geometry error")
	}
	p, err := NewPlan(sys, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.BatchCount != DefaultBatchCount {
		t.Fatalf("default Nc = %d, want %d", p.BatchCount, DefaultBatchCount)
	}
	if p.Ranks() != 8 {
		t.Fatalf("Ranks = %d", p.Ranks())
	}
}

// Slabs must partition the plan's window [z0, z0+nz) exactly: disjoint,
// ordered, complete, and nothing outside it.
func TestPlanSlabsPartitionVolume(t *testing.T) {
	for _, cfg := range []struct{ ng, nc, nz, z0, wnz int }{
		{1, 8, 24, 0, 24}, {2, 4, 24, 0, 24}, {3, 3, 25, 0, 25}, {4, 8, 23, 0, 23},
		{2, 3, 24, 5, 13}, {3, 2, 25, 1, 3}, {1, 8, 24, 23, 1},
	} {
		sys := testSystem()
		sys.NZ = cfg.nz
		p, err := NewWindowPlan(sys, cfg.ng, 1, cfg.nc, cfg.z0, cfg.wnz)
		if err != nil {
			t.Fatal(err)
		}
		if h := p.Output(); h.Z0 != cfg.z0 || h.NZ != cfg.wnz || h.NX != sys.NX || h.NY != sys.NY {
			t.Fatalf("cfg %v: output %v", cfg, h)
		}
		covered := make([]int, sys.NZ)
		for g := 0; g < cfg.ng; g++ {
			for c := 0; c < cfg.nc; c++ {
				z0, nz := p.SlabZ(g, c)
				for z := z0; z < z0+nz; z++ {
					covered[z]++
				}
				if nz > 0 {
					if rows := p.SlabRows(g, c); rows.IsEmpty() {
						t.Fatalf("cfg %v: non-empty slab (%d,%d) has empty rows", cfg, g, c)
					}
					if p.RingDepth(g) < p.SlabRows(g, c).Len() {
						t.Fatalf("cfg %v: ring depth too small", cfg)
					}
				}
			}
		}
		for z, n := range covered {
			if in := z >= cfg.z0 && z < cfg.z0+cfg.wnz; in && n != 1 || !in && n != 0 {
				t.Fatalf("cfg %v: slice %d covered %d times", cfg, z, n)
			}
		}
	}
}

func TestPlanProjWindows(t *testing.T) {
	p, _ := NewPlan(testSystem(), 2, 4, 4)
	seen := make([]int, p.Sys.NP)
	for r := 0; r < 4; r++ {
		lo, hi := p.ProjWindow(r)
		if hi-lo != p.Sys.NP/4 {
			t.Fatalf("window %d size %d", r, hi-lo)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("projection %d covered %d times", i, n)
		}
	}
	if p.GroupOf(5) != 1 || p.RankInGroup(5) != 1 {
		t.Fatalf("grouping wrong: %d/%d", p.GroupOf(5), p.RankInGroup(5))
	}
}

func TestPlanInputElements(t *testing.T) {
	p, _ := NewPlan(testSystem(), 1, 2, 8)
	// The rank loads each row of the union range exactly once.
	union := geometry.RowRange{}
	for c := 0; c < p.BatchCount; c++ {
		union = union.Union(p.SlabRows(0, c))
	}
	want := int64(p.Sys.NU) * int64(p.Sys.NP/2) * int64(union.Len())
	if got := p.InputElements(0); got != want {
		t.Fatalf("InputElements = %d, want %d", got, want)
	}
}

func TestReconstructSingleMatchesMonolithic(t *testing.T) {
	sys := testSystem()
	sys.SigmaV = 0.25
	st := sheppStack(t, sys)
	want := reference(t, sys, st, filter.RamLak)

	p, err := NewPlan(sys, 1, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New("test", 0, 2)
	rep, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: &projection.MemorySource{Full: st},
		Device: dev, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slabs != 6 {
		t.Fatalf("processed %d slabs, want 6", rep.Slabs)
	}
	for i := range want.Data {
		if want.Data[i] != sink.V.Data[i] {
			t.Fatalf("voxel %d: streaming %g != monolithic %g", i, sink.V.Data[i], want.Data[i])
		}
	}
	// I/O property: every detector row of the union range crossed the
	// link exactly once.
	if rep.Ledger.H2DBytes != 4*p.InputElements(0) {
		t.Fatalf("H2D %d bytes, want %d", rep.Ledger.H2DBytes, 4*p.InputElements(0))
	}
}

// Out-of-core behaviour: with a device too small for the whole problem the
// reconstruction still works when the plan is batched finely enough, and
// the ring+slab allocations respect the budget.
func TestReconstructSingleOutOfCore(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	want := reference(t, sys, st, filter.RamLak)

	fullBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(sys.NZ)
	stackBytes := st.Bytes()
	// Budget well below (volume + projections): only streaming fits.
	budget := (fullBytes + stackBytes) / 3

	p, _ := NewPlan(sys, 1, 1, 8)
	sink, _ := NewVolumeSink(sys)
	dev := device.New("small", budget, 2)
	if _, err := ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: dev, Sink: sink}); err != nil {
		t.Fatalf("out-of-core reconstruction failed under budget %d: %v", budget, err)
	}
	stats, _ := volume.Compare(want, sink.V)
	if stats.MaxAbs != 0 {
		t.Fatalf("out-of-core result differs: %+v", stats)
	}
	if dev.Allocated() != 0 {
		t.Fatalf("device memory leaked: %d", dev.Allocated())
	}
}

func TestReconstructSingleOptionValidation(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p1, _ := NewPlan(sys, 1, 1, 4)
	sink, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{Plan: p1, Source: src, Device: device.New("d", 0, 1)}); err == nil {
		t.Error("expected missing-sink error")
	}
	p2, _ := NewPlan(sys, 2, 2, 4)
	if _, err := ReconstructSingle(ReconOptions{Plan: p2, Source: src, Device: device.New("d", 0, 1), Sink: sink}); err == nil {
		t.Error("expected multi-rank plan error")
	}
	other := *sys
	other.NP = 16
	pBad, _ := NewPlan(&other, 1, 1, 4)
	if _, err := ReconstructSingle(ReconOptions{Plan: pBad, Source: src, Device: device.New("d", 0, 1), Sink: sink}); err == nil {
		t.Error("expected source mismatch error")
	}
}

// RunDistributed reconstructs every plan shape to the monolithic volume: to
// the bit where a group has one rank, so no reduction reassociates a sum, and
// within float32 reassociation otherwise. A windowed plan gives the bytes of
// the same slices of the whole-volume run with as many ranks per group. On
// the short detector no row sees the volume's four end slices at either end,
// so twelve groups of two slices leave four ranks without a single detector
// row, and the window [17, 24) ends in two such batches: they store zero
// slabs, as the monolithic launch computes them.
func TestRunDistributedMatchesSingle(t *testing.T) {
	short := testSystem()
	short.NV = 20
	for _, sys := range []*geometry.System{testSystem(), short} {
		st := sheppStack(t, sys)
		src := &projection.MemorySource{Full: st}
		want := reference(t, sys, st, filter.RamLak)
		full := map[int]*volume.Volume{} // whole-volume runs by Nr

		for _, cfg := range []struct{ ng, nr, z0, nz int }{
			{1, 4, 0, 24}, {2, 2, 0, 24}, {4, 1, 0, 24}, {2, 4, 0, 24}, {12, 1, 0, 24},
			{2, 2, 5, 14}, {2, 2, 8, 16}, {1, 1, 17, 7},
		} {
			p, err := NewWindowPlan(sys, cfg.ng, cfg.nr, 4, cfg.z0, cfg.nz)
			if err != nil {
				t.Fatal(err)
			}
			sink := windowSink(t, p)
			rep, err := RunDistributed(ClusterOptions{
				Plan: p, Source: src, Output: sink,
			})
			if err != nil {
				t.Fatalf("NV=%d cfg %v: %v", sys.NV, cfg, err)
			}
			got := sink.V
			ref, _ := want.SubVolume(0, 0, cfg.z0, sys.NX, sys.NY, cfg.nz)
			exact := cfg.nr == 1
			if cfg.nz == sys.NZ {
				full[cfg.nr] = got
			} else if v := full[cfg.nr]; v != nil {
				ref, _ = v.SubVolume(0, 0, cfg.z0, sys.NX, sys.NY, cfg.nz)
				exact = true
			}
			if exact && !bytes.Equal(float32Bytes(got.Data), float32Bytes(ref.Data)) {
				t.Fatalf("NV=%d cfg %v: bytes differ", sys.NV, cfg)
			}
			// float32 tree-reduction reassociation only.
			if stats, _ := volume.Compare(ref, got); stats.RMSE > 1e-5 {
				t.Fatalf("NV=%d cfg %v: RMSE %g", sys.NV, cfg, stats.RMSE)
			}
			// Segmented reduction: each group's binomial trees move
			// (Nr−1)·(group volume) = (Nr−1)·Vol/Ng bytes; across the Ng
			// groups the total is (Nr−1)·Vol — independent of Ng, whereas
			// a global reduce would move (Ng·Nr−1)·Vol.
			wantReduce := int64(cfg.nr-1) * got.Bytes()
			if got := rep.TotalReduceBytes(); got != wantReduce {
				t.Fatalf("NV=%d cfg %v: reduce bytes %d, want %d", sys.NV, cfg, got, wantReduce)
			}
		}
	}
}

func TestRunDistributedHierarchicalReduce(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, _ := NewPlan(sys, 1, 4, 4)
	flat, _ := NewVolumeSink(sys)
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: flat}); err != nil {
		t.Fatal(err)
	}
	hier, _ := NewVolumeSink(sys)
	if _, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: hier,
		Hierarchical: true, RanksPerNode: 2,
	}); err != nil {
		t.Fatal(err)
	}
	stats, _ := volume.Compare(flat.V, hier.V)
	if stats.RMSE > 1e-5 {
		t.Fatalf("hierarchical result differs: %+v", stats)
	}
	// Misconfiguration is rejected.
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: hier, Hierarchical: true}); err == nil {
		t.Error("expected RanksPerNode error")
	}
}

func TestRunBatchBaselineMatchesAndIsRedundant(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	want := reference(t, sys, st, filter.RamLak)

	const ranks = 4
	const chunks = 4
	sink, _ := NewVolumeSink(sys)
	rep, err := RunBatchBaseline(BaselineOptions{
		Sys: sys, Ranks: ranks, ChunkCount: chunks, Source: src, Output: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := volume.Compare(want, sink.V)
	if stats.RMSE > 1e-5 {
		t.Fatalf("baseline RMSE %g", stats.RMSE)
	}
	// Table 2's baseline columns. The baseline re-ships its projection
	// share once per chunk (H2D total); each chunk is reduced over the whole
	// world one XY plane at a time, so every rank but the root sends once
	// per plane (msgs/rank) and the reduce moves (ranks−1)·Vol (reduce total).
	shareBytes := int64(sys.NU) * int64(sys.NP/ranks) * int64(sys.NV) * 4
	if got := rep.Ledgers[0].H2DBytes; got != chunks*shareBytes {
		t.Fatalf("baseline rank 0 H2D %d, want %d (chunk-redundant)", got, chunks*shareBytes)
	}
	var msgs int64
	for _, s := range rep.WorldStats {
		msgs += s.MessagesSent
	}
	if want := int64((ranks - 1) * sys.NZ); msgs != want {
		t.Fatalf("baseline sent %d messages, want (ranks−1)·NZ = %d", msgs, want)
	}
	volBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(sys.NZ)
	if got := rep.TotalReduceBytes(); got != (ranks-1)*volBytes {
		t.Fatalf("baseline reduce bytes %d, want (ranks−1)·Vol = %d", got, (ranks-1)*volBytes)
	}

	// One group of all ranks has the baseline's projection windows and its
	// reduction tree, so it reconstructs the same bytes — from each row
	// shipped once.
	p, _ := NewPlan(sys, 1, ranks, chunks)
	oneSink, _ := NewVolumeSink(sys)
	oneRep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: oneSink})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range oneSink.V.Data {
		if sink.V.Data[i] != x {
			t.Fatalf("voxel %d: baseline %g != one-group decomposition %g", i, sink.V.Data[i], x)
		}
	}
	if oneRep.TotalH2DBytes() >= rep.TotalH2DBytes() {
		t.Fatalf("expected one-group decomposition H2D (%d) < baseline (%d)",
			oneRep.TotalH2DBytes(), rep.TotalH2DBytes())
	}

	// Our decomposition at the same world size in two groups also reduces
	// strictly less.
	p, _ = NewPlan(sys, 2, 2, chunks)
	ourSink, _ := NewVolumeSink(sys)
	ourRep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: ourSink})
	if err != nil {
		t.Fatal(err)
	}
	if ourRep.TotalH2DBytes() >= rep.TotalH2DBytes() {
		t.Fatalf("expected 2-D decomposition H2D (%d) < baseline (%d)",
			ourRep.TotalH2DBytes(), rep.TotalH2DBytes())
	}
	if ourRep.TotalReduceBytes() >= rep.TotalReduceBytes() {
		t.Fatalf("expected segmented reduce (%d) < global reduce (%d)",
			ourRep.TotalReduceBytes(), rep.TotalReduceBytes())
	}
}

func TestRunBatchBaselineRespectsDeviceMemory(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	// The device holds a full-height ring of the share, as the ring lays it
	// out, and one chunk of the volume.
	ringBytes := device.Layout{NU: sys.NU, NP: sys.NP, H: sys.NV}.Bytes()
	volBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(sys.NZ)
	// Device that cannot hold share+volume: single-chunk baseline fails
	// (Table 5's ✗), chunked baseline succeeds.
	budget := ringBytes + volBytes/2
	sink, _ := NewVolumeSink(sys)
	_, err := RunBatchBaseline(BaselineOptions{
		Sys: sys, Ranks: 1, ChunkCount: 1, Source: src, Output: sink, DeviceMemBytes: budget,
	})
	if !errors.Is(err, device.ErrOutOfMemory) {
		t.Fatalf("monolithic baseline under %d B: got %v, want ErrOutOfMemory", budget, err)
	}
	chunked, _ := NewVolumeSink(sys)
	if _, err := RunBatchBaseline(BaselineOptions{
		Sys: sys, Ranks: 1, ChunkCount: 4, Source: src, Output: chunked, DeviceMemBytes: budget,
	}); err != nil {
		t.Fatalf("chunked baseline should fit: %v", err)
	}
	mono, _ := NewVolumeSink(sys)
	if _, err := RunBatchBaseline(BaselineOptions{Sys: sys, Ranks: 1, ChunkCount: 1, Source: src, Output: mono}); err != nil {
		t.Fatal(err)
	}
	for i, x := range mono.V.Data {
		if chunked.V.Data[i] != x {
			t.Fatalf("voxel %d: chunked baseline %g != monolithic %g", i, chunked.V.Data[i], x)
		}
	}
}

// End-to-end quality: FDK of the analytic Shepp–Logan projections must
// recover the phantom densities (the paper's §6.1 numerical assessment).
func TestFDKQualitySheppLogan(t *testing.T) {
	sys := testSystem()
	sys.NP = 64 // denser angular sampling for quality
	st := sheppStack(t, sys)
	p, _ := NewPlan(sys, 1, 1, 4)
	sink, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: &projection.MemorySource{Full: st},
		Device: device.New("q", 0, 2), Sink: sink, Window: filter.Hann,
	}); err != nil {
		t.Fatal(err)
	}
	truth, err := phantom.SheppLogan().Voxelize(sys, fovScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := volume.Compare(truth, sink.V)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RMSE > 0.12 {
		t.Fatalf("Shepp–Logan RMSE %g too high (means %g vs %g)", stats.RMSE, stats.MeanA, stats.MeanB)
	}
	// The mid-plane centre (inside the 0.2-density brain region, away
	// from cone artefacts) must be near truth.
	got := float64(sink.V.At(sys.NX/2, sys.NY/2, sys.NZ/2))
	if math.Abs(got-0.2) > 0.08 {
		t.Fatalf("centre density %g, want ≈0.2", got)
	}
}

// Absolute-scale validation on the simplest object: a uniform sphere must
// reconstruct to its density, confirming the Δu and Δβ/2 quadrature
// factors.
func TestFDKAbsoluteScale(t *testing.T) {
	sys := testSystem()
	sys.NP = 64
	ph := phantom.UniformSphere(0.5, 1.5)
	st, err := forward.Project(sys, ph, fovScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPlan(sys, 1, 1, 2)
	sink, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: &projection.MemorySource{Full: st},
		Device: device.New("q", 0, 2), Sink: sink,
	}); err != nil {
		t.Fatal(err)
	}
	got := float64(sink.V.At(sys.NX/2, sys.NY/2, sys.NZ/2))
	if math.Abs(got-1.5)/1.5 > 0.1 {
		t.Fatalf("sphere centre reconstructs to %g, want 1.5±10%%", got)
	}
}
