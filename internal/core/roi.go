package core

import (
	"fmt"

	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// ZWindowOptions configures a region-of-interest reconstruction of the
// slice window [Z0, Z0+NZ) of the full volume, without reconstructing the
// rest. Because the decomposition already reconstructs arbitrary Z slabs
// from their ComputeAB detector-row ranges, an ROI costs exactly its share
// of the full problem — the "use fewer resources for a preview" workflow
// the paper's discussion (§6.3) motivates for parameter tuning.
type ZWindowOptions struct {
	Sys    *geometry.System
	Source projection.Source
	Device *device.Device
	Window filter.Window
	// Z0 and NZ select the slice window in global volume coordinates.
	Z0, NZ int
	// SlabSlices bounds the streaming slab height (0 picks NZ/8,
	// minimum 1).
	SlabSlices int
}

// ReconstructZWindow reconstructs only the requested slice window. The
// result is a slab positioned at Z0 whose voxels are identical to the same
// window of a full reconstruction.
func ReconstructZWindow(opts ZWindowOptions) (*volume.Volume, *ReconReport, error) {
	sys := opts.Sys
	if sys == nil || opts.Source == nil || opts.Device == nil {
		return nil, nil, fmt.Errorf("core: Sys, Source and Device are required")
	}
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.Z0 < 0 || opts.NZ <= 0 || opts.Z0+opts.NZ > sys.NZ {
		return nil, nil, fmt.Errorf("core: Z window [%d,%d) outside [0,%d)", opts.Z0, opts.Z0+opts.NZ, sys.NZ)
	}
	nb := opts.SlabSlices
	if nb <= 0 {
		nb = max(opts.NZ/DefaultBatchCount, 1)
	}
	out, err := volume.NewSlab(sys.NX, sys.NY, opts.NZ, opts.Z0)
	if err != nil {
		return nil, nil, err
	}
	// The rank program over the window's own schedule instead of a Plan's,
	// assembling into the window slab.
	prog := &program{
		ReconOptions: ReconOptions{
			Source: opts.Source, Device: opts.Device, Window: opts.Window,
			Sink: &VolumeSink{V: out},
		},
		sys: sys, sched: zSchedule(sys, opts.Z0, opts.NZ, nb), pHi: sys.NP,
	}
	rep, err := prog.report()
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}
