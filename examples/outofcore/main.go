// Out-of-core reconstruction: generate a volume several times larger than
// the device's memory budget on a single simulated accelerator — the
// paper's Table 5 scenario, where the streaming kernel with its
// ring-buffered projection rows keeps working long after the conventional
// approach runs out of device memory.
//
//	go run ./examples/outofcore
package main

import (
	"errors"
	"fmt"
	"log"
	"runtime"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/forward"
	"distfdk/internal/projection"
)

func main() {
	log.SetFlags(0)

	// A scaled twin of TomoBank tomo_00029 (the paper's 17.9 GB input).
	ds, err := dataset.Tomo00029().Scaled(16)
	if err != nil {
		log.Fatal(err)
	}
	const outN = 96
	sys, err := ds.System(outN)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := forward.Project(sys, ds.Phantom(), ds.FOV/2, 0)
	if err != nil {
		log.Fatal(err)
	}
	source := &projection.MemorySource{Full: stack}

	volBytes := 4 * int64(outN) * int64(outN) * int64(outN)
	fmt.Printf("input: %s of projections; output: %s volume\n",
		mib(stack.Bytes()), mib(volBytes))

	// The conventional kernel needs projections + volume resident.
	// Give the device one third of that.
	budget := (stack.Bytes() + volBytes) / 3
	fmt.Printf("device memory budget: %s\n", mib(budget))

	// Conventional residency check (what RTK-style code would need).
	conventional := device.New("conventional", budget, 0)
	if err := conventional.Alloc(stack.Bytes() + volBytes); errors.Is(err, device.ErrOutOfMemory) {
		fmt.Println("conventional batch kernel: ✗ out of device memory (Table 5's ✗ entries)")
	} else {
		log.Fatal("budget unexpectedly fits the conventional kernel; enlarge the problem")
	}

	// Streaming decomposition: Nc batches of thin slabs, ring-buffered
	// differential row loads (Algorithm 3).
	for _, nc := range []int{8, 16} {
		plan, err := core.NewPlan(sys, 1, 1, nc)
		if err != nil {
			log.Fatal(err)
		}
		sink, err := core.NewVolumeSink(sys)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.Supervise(core.SuperviseOptions{Cluster: core.ClusterOptions{
			Plan: plan, Source: source, Output: sink,
			DeviceMemBytes: budget, WorkersPerRank: runtime.GOMAXPROCS(0),
		}, MaxRestarts: 0})
		if err != nil {
			log.Fatal(err)
		}
		ringRows := plan.RingDepth(0)
		fmt.Printf("streaming, Nc=%2d: ok in %v — ring %d rows (%s) + slab %s; H2D %s (each row exactly once)\n",
			nc, rep.Final.Elapsed.Round(1e6), ringRows,
			mib(device.Layout{NU: sys.NU, NP: sys.NP, H: ringRows}.Bytes()),
			mib(plan.SlabBytes()), mib(rep.Final.Ledgers[0].H2DBytes))
	}
	fmt.Println("the same mechanism generates the paper's 4096³ (256 GB) volume on a 16 GB V100")
}

func mib(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }
