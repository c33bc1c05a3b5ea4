package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/projection"
)

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

	for _, win := range []struct{ z0, nz int }{{0, 6}, {9, 7}, {sys.NZ - 5, 5}, {0, sys.NZ}} {
		roi, rep, err := ReconstructZWindow(ZWindowOptions{
			Sys: sys, Source: src, Device: device.New("roi", 0, 2),
			Z0: win.z0, NZ: win.nz,
		})
		if err != nil {
			t.Fatalf("window %+v: %v", win, err)
		}
		if rep.Slabs == 0 {
			t.Fatalf("window %+v: no slabs processed", win)
		}
		if roi.Z0 != win.z0 || roi.NZ != win.nz {
			t.Fatalf("window %+v: got slab %s", win, roi.ShapeString())
		}
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

// The ROI must load only its own detector rows, not the whole input.
func TestReconstructZWindowLoadsOnlyItsRows(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	dev := device.New("roi", 0, 2)
	_, rep, err := ReconstructZWindow(ZWindowOptions{
		Sys: sys, Source: src, Device: dev, Z0: 10, NZ: 4, SlabSlices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := sys.ComputeAB(10, 14)
	rowBytes := int64(sys.NU) * int64(sys.NP) * 4
	if got, bound := rep.Ledger.H2DBytes, rowBytes*int64(rows.Len()); got > bound {
		t.Fatalf("ROI loaded %d bytes, bound %d (its ComputeAB rows)", got, bound)
	}
	if got, full := rep.Ledger.H2DBytes, st.Bytes(); got >= full {
		t.Fatalf("ROI loaded the whole input (%d of %d bytes)", got, full)
	}
}

func TestReconstructZWindowValidation(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	dev := device.New("roi", 0, 1)
	cases := []ZWindowOptions{
		{Sys: nil, Source: src, Device: dev, Z0: 0, NZ: 4},
		{Sys: sys, Source: nil, Device: dev, Z0: 0, NZ: 4},
		{Sys: sys, Source: src, Device: nil, Z0: 0, NZ: 4},
		{Sys: sys, Source: src, Device: dev, Z0: -1, NZ: 4},
		{Sys: sys, Source: src, Device: dev, Z0: 0, NZ: 0},
		{Sys: sys, Source: src, Device: dev, Z0: sys.NZ - 2, NZ: 4},
	}
	for i, opts := range cases {
		if _, _, err := ReconstructZWindow(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
