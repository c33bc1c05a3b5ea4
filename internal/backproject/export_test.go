package backproject

import (
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// Reference is the oracle for the package's external tests: every
// projection of stack back-projected into every voxel of vol.
func Reference(stack *projection.Stack, mats []geometry.Mat34x4, vol *volume.Volume) {
	denseAccess(stack).reference(mats, vol)
}
