// Command phantomgen synthesises cone-beam projection datasets: it forward
// projects a dataset's phantom through its (scaled) acquisition geometry
// and writes a projection container that fdkrecon can reconstruct.
//
//	phantomgen -dataset coffee-bean -div 16 -o coffee.fbp
//	phantomgen -dataset tomo_00030 -div 8 -counts -o raw.fbp
//
// With -counts the output holds raw photon counts (inverse Beer–Lambert),
// exercising the preprocessing path of Equation 1 at reconstruction time.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"distfdk/internal/dataset"
	"distfdk/internal/filter"
	"distfdk/internal/forward"
	"distfdk/internal/storage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phantomgen: ")

	var (
		dsName   = flag.String("dataset", "tomo_00030", "dataset geometry and phantom")
		div      = flag.Int("div", 8, "detector/angle scale divisor")
		outN     = flag.Int("n", 64, "reconstruction grid used only for geometry validation")
		counts   = flag.Bool("counts", false, "emit raw photon counts instead of line integrals")
		outPath  = flag.String("o", "projections.fbp", "output projection container")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "CPU parallelism")
		noise    = flag.Float64("noise", 0, "photon budget λ_blank for Poisson noise (0 = noiseless)")
		sinogram = flag.String("sinogram", "", "optional central-row sinogram PGM path")
	)
	flag.Parse()

	ds, err := dataset.ByName(*dsName)
	if err != nil {
		log.Fatal(err)
	}
	scaled, err := ds.Scaled(*div)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := scaled.System(*outN)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := forward.Project(sys, scaled.Phantom(), scaled.FOV/2, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if *noise > 0 {
		if err := forward.AddPoissonNoise(stack, &filter.Beer{Blank: *noise}, 1); err != nil {
			log.Fatal(err)
		}
	}
	kind := "line integrals"
	if *counts {
		if err := forward.ToCounts(stack, scaled.Beer()); err != nil {
			log.Fatal(err)
		}
		kind = "photon counts"
	}
	if *sinogram != "" {
		if err := stack.SaveSinogramPGM(*sinogram, stack.NV/2); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("central sinogram written to %s\n", *sinogram)
	}
	if err := storage.WriteStack(*outPath, stack); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d projections of %dx%d (%s, %.1f MiB) -> %s\n",
		scaled.Name, stack.NP, stack.NU, stack.NV, kind,
		float64(stack.Bytes())/(1<<20), *outPath)
}
