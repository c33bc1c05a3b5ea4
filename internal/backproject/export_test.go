package backproject

import (
	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// Reference is the oracle for the package's external tests: every
// projection of stack back-projected into every voxel of vol.
func Reference(stack *projection.Stack, mats []geometry.Mat34x4, vol *volume.Volume) {
	denseAccess(stack).reference(mats, vol)
}

// Batch is the batch reconstruction of Algorithm 1 as the tests spell it:
// the whole stack loaded into a ring as tall as it, and one Streaming
// launch over all of vol.
func Batch(dev *device.Device, stack *projection.Stack, mats []geometry.Mat34x4, vol *volume.Volume) error {
	ring, err := device.NewProjRing(dev, stack.NU, stack.NP, stack.NV)
	if err != nil {
		return err
	}
	defer ring.Close()
	if err := ring.LoadRows(stack, stack.Rows()); err != nil {
		return err
	}
	return Streaming(dev, ring, mats, vol, stack.Rows())
}
