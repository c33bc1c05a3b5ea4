package core

import (
	"errors"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func TestReconstructXYTileMatchesFullRegion(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	// Full reference.
	plan, _ := NewPlan(sys, 1, 1, 4)
	full, _ := NewVolumeSink(sys)
	if _, err := ReconstructSingle(ReconOptions{
		Plan: plan, Source: src, Device: device.New("full", 0, 2), Sink: full,
	}); err != nil {
		t.Fatal(err)
	}

	tiles := []struct{ i0, ni, j0, nj, k0, nk int }{
		{8, 8, 8, 8, 6, 10},               // central tile
		{0, 6, 0, 6, 0, 8},                // corner tile
		{16, 8, 4, 10, 12, 12},            // off-centre tile
		{0, sys.NX, 0, sys.NY, 0, sys.NZ}, // degenerate: the whole volume
	}
	for _, tc := range tiles {
		tile, rep, err := ReconstructXYTile(XYTileOptions{
			Sys: sys, Source: src, Device: device.New("tile", 0, 2),
			I0: tc.i0, NI: tc.ni, J0: tc.j0, NJ: tc.nj, K0: tc.k0, NK: tc.nk,
		})
		if err != nil {
			t.Fatalf("tile %+v: %v", tc, err)
		}
		want, err := full.V.SubVolume(tc.i0, tc.j0, tc.k0, tc.ni, tc.nj, tc.nk)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := volume.Compare(want, tile)
		if err != nil {
			t.Fatal(err)
		}
		// Shifted float32 matrices reassociate a few ulps; the images
		// must still agree to ~1e-5 of their ~1.0 dynamic range.
		if stats.RMSE > 2e-5 || stats.MaxAbs > 5e-4 {
			t.Fatalf("tile %+v differs from full region: %+v", tc, stats)
		}
		if rep.InputBytes <= 0 || rep.InputBytes > rep.FullInputBytes {
			t.Fatalf("tile %+v input accounting wrong: %+v", tc, rep)
		}
	}
}

// The 3-D decomposition's payoff: a small central tile consumes a small
// fraction of the input.
func TestReconstructXYTileInputShrinks(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	_, rep, err := ReconstructXYTile(XYTileOptions{
		Sys: sys, Source: src, Device: device.New("tile", 0, 2),
		I0: sys.NX/2 - 3, NI: 6, J0: sys.NY/2 - 3, NJ: 6, K0: sys.NZ/2 - 3, NK: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(rep.InputBytes) / float64(rep.FullInputBytes); frac > 0.5 {
		t.Fatalf("central 6³ tile consumed %.0f%% of the input", frac*100)
	}
}

func TestReconstructXYTileValidation(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	dev := device.New("tile", 0, 1)
	bad := []XYTileOptions{
		{Sys: nil, Source: src, Device: dev, NI: 2, NJ: 2, NK: 2},
		{Sys: sys, Source: nil, Device: dev, NI: 2, NJ: 2, NK: 2},
		{Sys: sys, Source: src, Device: nil, NI: 2, NJ: 2, NK: 2},
		{Sys: sys, Source: src, Device: dev, I0: -1, NI: 2, NJ: 2, NK: 2},
		{Sys: sys, Source: src, Device: dev, NI: 2, NJ: 2, NK: 0},
		{Sys: sys, Source: src, Device: dev, I0: sys.NX - 1, NI: 4, NJ: 2, NK: 2},
	}
	for i, opts := range bad {
		if _, _, err := ReconstructXYTile(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// A too-small device budget is reported.
	tiny := device.New("tiny", 16, 1)
	if _, _, err := ReconstructXYTile(XYTileOptions{
		Sys: sys, Source: src, Device: tiny, NI: 4, NJ: 4, NK: 4,
	}); err == nil {
		t.Error("expected out-of-memory error")
	}
}

// The tile uploads through a ring of its rows' height: the device holds the
// ring's Layout.Bytes() while the tile runs (apron included: one byte less
// is out of memory), the H2D is the cropped rows once, in 2 ops when the
// load wraps, and nothing stays allocated afterwards.
func TestReconstructXYTileChargesItsRing(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	for _, tc := range []struct{ i0, ni, k0, nk int }{{0, 6, 0, 8}, {8, 8, 6, 10}} {
		rows := sys.ComputeAB(tc.k0, tc.k0+tc.nk)
		cols := sys.TileColumns(tc.i0, tc.i0+tc.ni, tc.i0, tc.i0+tc.ni)
		budget := device.Layout{NU: cols.Len(), NP: sys.NP, H: rows.Len()}.Bytes()
		opts := XYTileOptions{Sys: sys, Source: src, I0: tc.i0, NI: tc.ni, J0: tc.i0, NJ: tc.ni, K0: tc.k0, NK: tc.nk}
		opts.Device = device.New("short", budget-1, 1)
		if _, _, err := ReconstructXYTile(opts); !errors.Is(err, device.ErrOutOfMemory) {
			t.Fatalf("tile %+v on %d B: %v, want out of memory", tc, budget-1, err)
		}
		opts.Device = device.New("exact", budget, 1)
		_, rep, err := ReconstructXYTile(opts)
		if err != nil {
			t.Fatalf("tile %+v on %d B: %v", tc, budget, err)
		}
		ops := int64(1)
		if rows.Lo%rows.Len() != 0 {
			ops = 2
		}
		if l := opts.Device.Snapshot(); l.H2DBytes != rep.InputBytes || l.H2DOps != ops || opts.Device.Allocated() != 0 {
			t.Fatalf("tile %+v (rows %v): H2D %d B in %d ops, %d B left allocated; want %d B in %d ops, 0",
				tc, rows, l.H2DBytes, l.H2DOps, opts.Device.Allocated(), rep.InputBytes, ops)
		}
	}
}
