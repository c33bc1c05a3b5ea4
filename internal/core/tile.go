package core

import (
	"fmt"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// XYTileOptions configures a 3-D-decomposed reconstruction of one output
// tile: voxels i ∈ [I0, I0+NI), j ∈ [J0, J0+NJ), k ∈ [K0, K0+NK). The
// loader fetches only the detector rows the Z window needs (Algorithm 2)
// and only the detector columns the XY footprint needs
// (geometry.TileColumns) — the extension of the paper's 2-D decomposition
// to all three input axes, which its Table 2 leaves as the open cell
// (their lower bound is O(Nu) because the column axis stays whole).
type XYTileOptions struct {
	Sys    *geometry.System
	Source projection.Source
	Device *device.Device
	Window filter.Window
	I0, NI int
	J0, NJ int
	K0, NK int
}

// TileReport describes what the tile actually consumed.
type TileReport struct {
	Rows    geometry.RowRange // detector rows loaded
	Columns geometry.RowRange // detector columns loaded
	// InputBytes is the partial-projection volume fetched, vs the full
	// detector's FullInputBytes.
	InputBytes, FullInputBytes int64
}

// ReconstructXYTile reconstructs one output tile from its detector window.
// The result volume is NI×NJ×NK with Z0 = K0; its voxels match the same
// region of a full reconstruction up to float32 rounding in the shifted
// matrices (≈1e-6 relative).
func ReconstructXYTile(opts XYTileOptions) (*volume.Volume, *TileReport, error) {
	sys := opts.Sys
	if sys == nil || opts.Source == nil || opts.Device == nil {
		return nil, nil, fmt.Errorf("core: Sys, Source and Device are required")
	}
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.I0 < 0 || opts.NI <= 0 || opts.I0+opts.NI > sys.NX ||
		opts.J0 < 0 || opts.NJ <= 0 || opts.J0+opts.NJ > sys.NY ||
		opts.K0 < 0 || opts.NK <= 0 || opts.K0+opts.NK > sys.NZ {
		return nil, nil, fmt.Errorf("core: tile (%d,%d,%d)+(%d,%d,%d) outside volume %dx%dx%d",
			opts.I0, opts.J0, opts.K0, opts.NI, opts.NJ, opts.NK, sys.NX, sys.NY, sys.NZ)
	}
	rows := sys.ComputeAB(opts.K0, opts.K0+opts.NK)
	cols := sys.TileColumns(opts.I0, opts.I0+opts.NI, opts.J0, opts.J0+opts.NJ)
	if rows.IsEmpty() || cols.IsEmpty() {
		return nil, nil, fmt.Errorf("core: tile projects outside the detector (rows %v, cols %v)", rows, cols)
	}

	// Load the row band and crop the column window.
	st, err := opts.Source.LoadRows(rows, 0, sys.NP)
	if err != nil {
		return nil, nil, err
	}
	parker, err := NewParker(sys)
	if err != nil {
		return nil, nil, err
	}
	// Filter on full-width rows (the ramp is a full-row convolution; the
	// column crop applies after filtering, exactly as the row crop
	// applies after the 2-D filter of Equation 2).
	fdk, err := NewFilter(sys, opts.Window)
	if err != nil {
		return nil, nil, err
	}
	if err := filterStack(fdk, parker, st, opts.Device.WorkerCount()); err != nil {
		return nil, nil, err
	}
	cropped, err := st.ExtractColumns(cols.Lo, cols.Hi)
	if err != nil {
		return nil, nil, err
	}
	ring, err := device.NewProjRing(opts.Device, cropped.NU, cropped.NP, rows.Len())
	if err != nil {
		return nil, nil, err
	}
	defer ring.Close()
	if err := ring.LoadRows(cropped, rows); err != nil {
		return nil, nil, err
	}

	// Shift the matrices to the cropped detector and the tile-local voxel
	// origin. The rows need no shift: the ring holds global rows.
	mats := make([]geometry.Mat34x4, sys.NP)
	for p := range mats {
		m := sys.Matrix(sys.Angle(p)).
			ShiftDetector(float64(cols.Lo), 0).
			ShiftVolume(float64(opts.I0), float64(opts.J0), 0)
		mats[p] = m.ToKernel()
	}
	tile, err := volume.NewSlab(opts.NI, opts.NJ, opts.NK, opts.K0)
	if err != nil {
		return nil, nil, err
	}
	if err := backproject.Streaming(opts.Device, ring, mats, tile, rows); err != nil {
		return nil, nil, err
	}
	opts.Device.RecordD2H(tile.Bytes())

	rep := &TileReport{
		Rows: rows, Columns: cols,
		InputBytes:     cropped.Bytes(),
		FullInputBytes: int64(sys.NU) * int64(sys.NV) * int64(sys.NP) * 4,
	}
	return tile, rep, nil
}
