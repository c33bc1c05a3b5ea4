// Distributed reconstruction: the paper's grouped decomposition (Figure 3)
// with the segmented reduction, run in-process with MPI-style ranks, and a
// head-to-head traffic comparison against the batch-decomposition baseline
// at equal world size.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/forward"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func main() {
	log.SetFlags(0)

	ds, err := dataset.Bumblebee().Scaled(32)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ds.System(64)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := forward.Project(sys, ds.Phantom(), ds.FOV/2, 0)
	if err != nil {
		log.Fatal(err)
	}
	source := &projection.MemorySource{Full: stack}
	fmt.Printf("dataset %s: %d projections of %dx%d, magnification %.1f\n",
		ds.Name, sys.NP, sys.NU, sys.NV, ds.Magnification())

	// This work: Ng=2 groups × Nr=4 ranks, one segmented reduce per slab.
	plan, err := core.NewPlan(sys, 2, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	ours, err := core.NewVolumeSink(sys)
	if err != nil {
		log.Fatal(err)
	}
	sup, err := core.Supervise(core.SuperviseOptions{Cluster: core.ClusterOptions{
		Plan: plan, Source: source, Output: ours,
		Hierarchical: true, RanksPerNode: 2,
	}, MaxRestarts: 0})
	if err != nil {
		log.Fatal(err)
	}
	oursRep := sup.Final
	fmt.Printf("\nthis work   (Ng=2 × Nr=4, segmented hierarchical reduce):\n")
	fmt.Printf("  elapsed %v, H2D %s, reduce %s\n",
		oursRep.Elapsed.Round(1e6), mib(oursRep.TotalH2DBytes()), mib(oursRep.TotalReduceBytes()))

	// Baseline: batch-only decomposition at the same 8 ranks, 4 volume
	// chunks for out-of-core, one global reduce per chunk.
	base, err := core.NewVolumeSink(sys)
	if err != nil {
		log.Fatal(err)
	}
	baseRep, err := core.RunBatchBaseline(core.BaselineOptions{
		Sys: sys, Ranks: 8, ChunkCount: 4, Source: source, Output: base,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline    (Np-only split, 4 chunks, global reduce):\n")
	fmt.Printf("  elapsed %v, H2D %s, reduce %s\n",
		baseRep.Elapsed.Round(1e6), mib(baseRep.TotalH2DBytes()), mib(baseRep.TotalReduceBytes()))

	stats, err := volume.Compare(ours.V, base.V)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nboth reconstruct the same volume: RMSE %.2e\n", stats.RMSE)
	fmt.Printf("traffic savings: %.1fx less H2D, %.1fx less reduce volume\n",
		float64(baseRep.TotalH2DBytes())/float64(oursRep.TotalH2DBytes()),
		float64(baseRep.TotalReduceBytes())/float64(oursRep.TotalReduceBytes()))
}

func mib(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }
