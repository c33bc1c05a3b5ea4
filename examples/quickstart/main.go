// Quickstart: reconstruct a 3-D Shepp–Logan phantom end to end — forward
// projection, FDK filtering, streaming back-projection — and write the
// central slice as a PGM image.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"runtime"

	"distfdk/internal/core"
	"distfdk/internal/filter"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func main() {
	log.SetFlags(0)

	// 1. Describe the scanner (a small cone-beam system, Table 1 of the
	//    paper). Distances in millimetres.
	sys := &geometry.System{
		DSO: 250, DSD: 350, // source–axis and source–detector distances
		NU: 96, NV: 80, DU: 0.5, DV: 0.5, // flat-panel detector
		NP: 96,                                            // projections over a full 360° scan
		NX: 64, NY: 64, NZ: 64, DX: 0.2, DY: 0.2, DZ: 0.2, // output grid
	}
	if err := sys.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. Synthesise the acquisition: exact cone-beam line integrals of
	//    the Shepp–Logan head phantom (FOV half-extent 6.4 mm).
	const fov = 6.4
	stack, err := forward.Project(sys, phantom.SheppLogan(), fov, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acquired %d projections of %dx%d (%.1f MiB)\n",
		stack.NP, stack.NU, stack.NV, float64(stack.Bytes())/(1<<20))

	// 3. Reconstruct with the streaming pipeline: a world of one rank, 8
	//    slab batches, one attempt.
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
		Source:         &projection.MemorySource{Full: stack},
		WorkersPerRank: runtime.GOMAXPROCS(0),
		Window:         filter.Hann,
		Output:         sink,
	}, MaxRestarts: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed %d³ volume in %v (%d slabs)\n", sys.NX, rep.Final.Elapsed.Round(1e6), rep.Final.BatchesDone[0])

	// 4. Check quality against the ground truth and export a slice.
	truth, err := phantom.SheppLogan().Voxelize(sys, fov, 2)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := volume.Compare(truth, sink.V)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RMSE vs phantom: %.4f (max |Δ| %.3f)\n", stats.RMSE, stats.MaxAbs)
	if err := sink.V.SavePGM("quickstart_slice.pgm", sys.NZ/2, 0, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("central slice written to quickstart_slice.pgm")
}
