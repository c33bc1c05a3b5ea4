package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// windowSink assembles a plan's output — its window of the volume — in
// memory.
func windowSink(t testing.TB, p *Plan) *VolumeSink {
	t.Helper()
	h := p.Output()
	v, err := volume.NewSlab(h.NX, h.NY, h.NZ, h.Z0)
	if err != nil {
		t.Fatal(err)
	}
	return &VolumeSink{V: v}
}

// A windowed plan reconstructs its slices to the bytes of the same slices of
// a whole-volume run, at any batch count and on one rank or four.
func TestReconstructZWindowMatchesFullWindow(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	// Full reconstruction reference via the standard driver.
	plan, _ := NewPlan(sys, 1, 1, 4)
	full, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: plan, Source: src, Device: device.New("full", 0, 2), Sink: full,
	}); err != nil {
		t.Fatal(err)
	}

	for _, win := range []struct{ z0, nz, nc int }{{0, 6, 8}, {9, 7, 3}, {sys.NZ - 5, 5, 8}, {0, sys.NZ, 5}} {
		p, err := NewWindowPlan(sys, 1, 1, win.nc, win.z0, win.nz)
		if err != nil {
			t.Fatalf("window %+v: %v", win, err)
		}
		sink := windowSink(t, p)
		rep, err := ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: device.New("window", 0, 2), Sink: sink})
		if err != nil {
			t.Fatalf("window %+v: %v", win, err)
		}
		if rep.Slabs == 0 {
			t.Fatalf("window %+v: no slabs processed", win)
		}
		roi := sink.V
		for k := 0; k < win.nz; k++ {
			got := roi.Slice(k)
			want := full.V.Slice(win.z0 + k)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window %+v slice %d voxel %d: %g != %g", win, k, i, got[i], want[i])
				}
			}
		}
	}
}

// The window must load only its own detector rows, not the whole input.
func TestReconstructZWindowLoadsOnlyItsRows(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewWindowPlan(sys, 1, 1, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: device.New("window", 0, 2), Sink: windowSink(t, p)})
	if err != nil {
		t.Fatal(err)
	}
	rows := sys.ComputeAB(10, 14)
	rowBytes := int64(sys.NU) * int64(sys.NP) * 4
	if got, bound := rep.Ledger.H2DBytes, rowBytes*int64(rows.Len()); got > bound {
		t.Fatalf("window loaded %d bytes, bound %d (its ComputeAB rows)", got, bound)
	}
	if got, full := rep.Ledger.H2DBytes, st.Bytes(); got >= full {
		t.Fatalf("window loaded the whole input (%d of %d bytes)", got, full)
	}
	if got, want := rep.Ledger.H2DBytes, 4*p.InputElements(0); got != want {
		t.Fatalf("window loaded %d bytes, its plan counts %d", got, want)
	}
}

// A window outside the volume, an empty one, and one with fewer slices
// than groups are refused.
func TestReconstructZWindowValidation(t *testing.T) {
	sys := testSystem()
	for _, win := range []struct{ ng, z0, nz int }{
		{1, -1, 4}, {1, 0, 0}, {1, 0, -2}, {1, sys.NZ - 2, 4}, {1, sys.NZ, 1}, {5, 10, 4},
	} {
		if p, err := NewWindowPlan(sys, win.ng, 1, 8, win.z0, win.nz); err == nil {
			t.Errorf("window %+v: accepted as %s", win, p)
		}
	}
	if _, err := NewWindowPlan(sys, 4, 1, 8, 10, 4); err != nil {
		t.Errorf("one slice per group: %v", err)
	}
}
