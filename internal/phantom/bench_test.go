package phantom_test

import (
	"testing"

	"distfdk/internal/dataset"
)

// BenchmarkVoxelize voxelises the reference the repository benchmark's
// single-kernel workload scores against: tomo_00030 ÷8 on a 96³ grid, one
// sample per voxel.
func BenchmarkVoxelize(b *testing.B) {
	ds, err := dataset.Tomo00030().Scaled(8)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ds.System(96)
	if err != nil {
		b.Fatal(err)
	}
	ph := ds.Phantom()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ph.Voxelize(sys, ds.FOV/2, 1); err != nil {
			b.Fatal(err)
		}
	}
}
