package core

import (
	"testing"

	"distfdk/internal/backproject"
	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/projection"
)

// Zero-valued options mean the same kernel in every driver: the single,
// distributed, ROI, tile and baseline drivers all dispatch to the widest
// recurrence arithmetic this host has, and the bit-identity
// contracts hold under it — single ≡ monolithic batch. With AVX2 masked off the same options reproduce an explicit KernelScalar
// run byte for byte — and since masking AVX2 also moves the row filter from
// its vector passes to its Go passes while the KernelScalar reference was
// filtered with AVX2 on, that equality is the filter's whole-volume
// AVX2 ≡ portable check too.
func TestDefaultKernelEveryDriver(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	single := func(kernel backproject.Kernel) ([]float32, string) {
		t.Helper()
		p, err := NewPlan(sys, 1, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		sink, _ := NewVolumeSink(sys)
		rep, err := ReconstructSingle(ReconOptions{
			Plan: p, Source: src, Device: device.New("single", 0, 2), Sink: sink, Kernel: kernel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sink.V.Data, rep.Ledger.Arithmetic()
	}
	distributed := func() string {
		t.Helper()
		p, err := NewPlan(sys, 1, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		sink, _ := NewVolumeSink(sys)
		rep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Arithmetic()
	}
	same := func(what string, want, got []float32) {
		t.Helper()
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: voxel %d: %g != %g", what, i, got[i], want[i])
			}
		}
	}

	// The dispatch rule: the assembly where the host has AVX2, else scalar.
	arith := "scalar"
	if cpufeat.AVX2() {
		arith = "avx2"
	}
	want := reference(t, sys, st, filter.RamLak)

	got, said := single(0)
	same("single driver vs monolithic batch", want.Data, got)
	if said != arith {
		t.Errorf("single driver ran %q, the default dispatch is %q", said, arith)
	}

	if said := distributed(); said != arith {
		t.Errorf("distributed driver ran %q, the default dispatch is %q", said, arith)
	}

	_, roi, err := ReconstructZWindow(ZWindowOptions{
		Sys: sys, Source: src, Device: device.New("roi", 0, 2), Z0: 4, NZ: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if said := roi.Ledger.Arithmetic(); said != arith {
		t.Errorf("ROI driver ran %q, the default dispatch is %q", said, arith)
	}
	tileDev := device.New("tile", 0, 2)
	if _, _, err := ReconstructXYTile(XYTileOptions{
		Sys: sys, Source: src, Device: tileDev, I0: 4, NI: 8, J0: 4, NJ: 8, K0: 4, NK: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if said := tileDev.Snapshot().Arithmetic(); said != arith {
		t.Errorf("tile driver ran %q, the default dispatch is %q", said, arith)
	}
	baseSink, _ := NewVolumeSink(sys)
	base, err := RunBatchBaseline(BaselineOptions{Sys: sys, Ranks: 2, ChunkCount: 2, Source: src, Output: baseSink})
	if err != nil {
		t.Fatal(err)
	}
	if said := base.Arithmetic(); said != arith {
		t.Errorf("baseline driver ran %q, the default dispatch is %q", said, arith)
	}

	// Any host without AVX2: the default is the scalar path.
	scalar, said := single(backproject.KernelScalar)
	if said != "scalar" {
		t.Errorf("KernelScalar ran %q", said)
	}
	defer cpufeat.SetAVX2ForTest(false)()
	got, said = single(0)
	if said != "scalar" {
		t.Errorf("default without AVX2 ran %q", said)
	}
	same("default without AVX2 vs KernelScalar", scalar, got)
}
