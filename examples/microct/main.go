// Micro-CT workflow: the coffee bean acquisition of Section 6.1 in
// miniature — an offset-detector scan pair stitched into wide projections,
// photon counts converted with Beer's law (Equation 1), geometric
// correction (σcor) through the general projection matrix, and a high-
// magnification reconstruction.
//
//	go run ./examples/microct
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/forward"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func main() {
	log.SetFlags(0)

	// A scaled twin of the coffee bean scan: 9.48× magnification and the
	// rotation-centre offset of Table 4.
	ds, err := dataset.CoffeeBean().Scaled(32)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ds.System(64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("geometry: %s — magnification %.2f, σcor = %g mm\n",
		ds.Name, ds.Magnification(), ds.SigmaCOR)

	// Acquire the stitched-width reference, then emulate the offset
	// detector: the physical panel is ~54%% of the stitched width, shot
	// twice (left- and right-offset) with an overlap (§6.1.i).
	full, err := forward.Project(sys, ds.Phantom(), ds.FOV/2, 0)
	if err != nil {
		log.Fatal(err)
	}
	overlap := sys.NU / 8
	half := (sys.NU + overlap) / 2
	fmt.Printf("detector: two %d-pixel offset scans stitched to %d pixels (overlap %d)\n",
		half, sys.NU, overlap)

	// Convert each projection to photon counts, split, stitch back, and
	// recover line integrals with Beer's law — the raw-data path.
	beer := ds.Beer()
	stitched, err := projection.NewStack(sys.NU, sys.NP, sys.NV)
	if err != nil {
		log.Fatal(err)
	}
	var maxStitchErr float64
	for p := 0; p < sys.NP; p++ {
		img, err := full.ToImage(p)
		if err != nil {
			log.Fatal(err)
		}
		left, _ := projection.NewImage(half, sys.NV)
		right, _ := projection.NewImage(sys.NU-half+overlap, sys.NV)
		for v := 0; v < sys.NV; v++ {
			for u := 0; u < half; u++ {
				left.Set(u, v, float32(beer.Counts(float64(img.At(u, v)))))
			}
			for u := 0; u < right.NU; u++ {
				right.Set(u, v, float32(beer.Counts(float64(img.At(half-overlap+u, v)))))
			}
		}
		joined, err := projection.StitchPair(left, right, overlap)
		if err != nil {
			log.Fatal(err)
		}
		if err := beer.Apply(joined.Data); err != nil {
			log.Fatal(err)
		}
		for v := 0; v < sys.NV; v++ {
			row, _ := stitched.Row(v, p)
			copy(row, joined.Data[v*sys.NU:(v+1)*sys.NU])
			for u := range row {
				if d := math.Abs(float64(row[u] - img.At(u, v))); d > maxStitchErr {
					maxStitchErr = d
				}
			}
		}
	}
	fmt.Printf("stitch+Beer round trip: max |Δ| = %.2e line-integral units\n", maxStitchErr)

	// Reconstruct from the stitched raw-data path.
	plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
	if err != nil {
		log.Fatal(err)
	}
	sink, err := core.NewVolumeSink(sys)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.Supervise(core.SuperviseOptions{Cluster: core.ClusterOptions{
		Plan:           plan,
		Source:         &projection.MemorySource{Full: stitched},
		WorkersPerRank: runtime.GOMAXPROCS(0),
		Output:         sink,
	}, MaxRestarts: 0})
	if err != nil {
		log.Fatal(err)
	}
	truth, err := ds.Phantom().Voxelize(sys, ds.FOV/2, 2)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := volume.Compare(truth, sink.V)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed %d³ in %v; RMSE vs phantom %.4f\n",
		sys.NX, rep.Final.Elapsed.Round(1e6), stats.RMSE)
	if err := sink.V.SavePGM("microct_bean_slice.pgm", sys.NZ/2, 0, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bean cross-section written to microct_bean_slice.pgm")
}
