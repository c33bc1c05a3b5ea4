package phantom_test

import (
	"fmt"
	"testing"

	"distfdk/internal/dataset"
)

// BenchmarkVoxelize voxelises the reference the repository benchmark scores
// against: tomo_00030 ÷8 on a 96³ grid, one sample per voxel (super=1), and
// at the eight samples per voxel the experiments use (super=2).
func BenchmarkVoxelize(b *testing.B) {
	ds, err := dataset.ByName("tomo_00030")
	if err == nil {
		ds, err = ds.Scaled(8)
	}
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ds.System(96)
	if err != nil {
		b.Fatal(err)
	}
	ph := ds.Phantom()
	for _, super := range []int{1, 2} {
		b.Run(fmt.Sprintf("super=%d", super), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ph.Voxelize(sys, ds.FOV/2, super); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
