// Iterative reconstruction: SIRT and OS-SART on the same projector pair as
// the FDK pipeline, in the sparse-view regime where the iterative
// frameworks of the paper's Table 2 earn their keep — plus a hybrid run
// that warm-starts the iteration from the FDK volume.
//
//	go run ./examples/iterative
package main

import (
	"fmt"
	"log"
	"runtime"

	"distfdk/internal/core"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/iterative"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func main() {
	log.SetFlags(0)

	// A deliberately under-sampled scan: 12 projections of a foam-like
	// object (40 voids), the worst case for filtered back-projection.
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 48, NV: 40, DU: 0.5, DV: 0.5,
		NP: 12,
		NX: 28, NY: 28, NZ: 24, DX: 0.4, DY: 0.4, DZ: 0.4,
	}
	const fov = 5.0
	ph := phantom.Foam(25, 7)
	stack, err := forward.Project(sys, ph, fov, 0)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := ph.Voxelize(sys, fov, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparse scan: %d projections of %dx%d\n", sys.NP, sys.NU, sys.NV)

	// 1. FDK: fast but streaky at 12 views.
	plan, err := core.NewPlan(sys, 1, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fdkSink, err := core.NewVolumeSink(sys)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.Supervise(core.SuperviseOptions{Cluster: core.ClusterOptions{
		Plan: plan, Source: &projection.MemorySource{Full: stack},
		Output: fdkSink, WorkersPerRank: runtime.GOMAXPROCS(0),
	}, MaxRestarts: 0})
	if err != nil {
		log.Fatal(err)
	}
	fdkStats, _ := volume.Compare(truth, fdkSink.V)
	fmt.Printf("FDK:        RMSE %.4f in %v\n", fdkStats.RMSE, rep.Final.Elapsed.Round(1e6))

	// 2. OS-SART: iterative with 4 ordered subsets.
	os, err := iterative.Reconstruct(sys, stack, iterative.Options{
		Iterations: 10, Subsets: 4, NonNegative: true,
		Callback: func(it int, rel float64) bool {
			if it%3 == 0 {
				fmt.Printf("  OS-SART pass %2d: relative residual %.4f\n", it, rel)
			}
			return true
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	osStats, _ := volume.Compare(truth, os.Volume)
	fmt.Printf("OS-SART:    RMSE %.4f after %d passes\n", osStats.RMSE, os.Iterations)

	// 3. Hybrid: warm-start SIRT from the FDK volume.
	hybrid, err := iterative.Reconstruct(sys, stack, iterative.Options{
		Iterations: 5, NonNegative: true, Initial: fdkSink.V,
	})
	if err != nil {
		log.Fatal(err)
	}
	hyStats, _ := volume.Compare(truth, hybrid.Volume)
	fmt.Printf("FDK+SIRT:   RMSE %.4f after %d refinement passes\n", hyStats.RMSE, hybrid.Iterations)

	if err := os.Volume.SavePGM("iterative_slice.pgm", sys.NZ/2, 0, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("OS-SART central slice written to iterative_slice.pgm")
}
