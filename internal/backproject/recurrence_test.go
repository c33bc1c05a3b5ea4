package backproject

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// Zero-voxel slabs (an empty projection window's degenerate launch) must
// count one kernel launch and zero updates without spawning workers over
// the empty range — the ledger's sample-path split stays all-zero too, and
// no arithmetic is recorded as dispatched.
func TestZeroVoxelSlabLaunch(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 5)
	dev := device.New("empty", 0, 4)
	slab := &volume.Volume{NX: sys.NX, NY: sys.NY, NZ: 0}
	if err := Batch(dev, stack, kernelMats(sys), slab); err != nil {
		t.Fatal(err)
	}
	l := dev.Snapshot()
	if l.KernelLaunches != 1 {
		t.Errorf("KernelLaunches = %d, want 1", l.KernelLaunches)
	}
	if l.VoxelUpdates != 0 {
		t.Errorf("VoxelUpdates = %d, want 0", l.VoxelUpdates)
	}
	if l.InteriorSamples != 0 || l.BorderSamples != 0 || l.SkippedSamples != 0 {
		t.Errorf("sample split non-zero on empty launch: %+v", l)
	}
	if got := l.Arithmetic(); got != "" {
		t.Errorf("empty launch dispatched %q", got)
	}
}
