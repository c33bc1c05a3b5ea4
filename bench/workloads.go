package main

import (
	"path/filepath"
	"strconv"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/filter"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/storage"
	"distfdk/internal/volume"
)

// benchDataset is the acquisition every workload reconstructs: TomoBank
// tomo_00030 (Table 5), a full 360° scan of the Shepp–Logan phantom.
const benchDataset = "tomo_00030"

// photons is the fixed photon budget λ_blank of the noisy inputs. The seed
// picks the Poisson realisation; the budget is high enough that the
// realisation moves rmse by far less than the rmse bound.
const photons = 1e6

// workload is one closed-loop, one-client fdkrecon invocation. Every flag
// not named here stays at the CLI default.
type workload struct {
	Name string
	Why  string
	// Div and N select the input (detector and angle divisor of the
	// dataset) and the N³ output grid.
	Div, N int
	// Ranks > 1 runs the distributed driver with a journal; World > 1
	// spreads it over that many OS processes on loopback TCP.
	Ranks, World int
	// Noisy inputs carry seeded Poisson noise. The ranks workloads stay
	// noiseless: -world does not forward -in to its workers (a recorded
	// defect), so a noisy file would reconstruct differently there.
	Noisy bool
	// MaxRMSE is the tolerance of the correctness check against the
	// voxelised phantom, a few percent above the value at the commit that
	// defined the benchmark.
	MaxRMSE float64
}

// workloads returns the four workloads at the benchmark's sizing, or at
// the seconds-scale sizing the tier-1 test uses.
func workloads(smoke bool) []workload {
	ws := []workload{
		{Name: "single-kernel", Div: 8, N: 96, Ranks: 1, Noisy: true, MaxRMSE: 0.108,
			Why: "back-projection is the bottleneck stage: kernel, ring and pipeline-overlap changes show here"},
		{Name: "single-filter", Div: 8, N: 24, Ranks: 1, Noisy: true, MaxRMSE: 0.1095,
			Why: "1.5 MiB in, 54 KiB out: launch, load and filter dominate, kernel changes should not show"},
		{Name: "ranks-inproc", Div: 8, N: 96, Ranks: 2, MaxRMSE: 0.108,
			Why: "the distributed per-rank loop, channel reduce, SlabWriter and fsync'd journal; bypasses nettrans"},
		{Name: "ranks-world", Div: 8, N: 96, Ranks: 2, World: 2, MaxRMSE: 0.108,
			Why: "ranks-inproc over loopback TCP in 2 OS processes: the difference is the cost of the socket world"},
	}
	if smoke {
		for i := range ws {
			ws[i].Div, ws[i].N, ws[i].MaxRMSE = 16, 32, 0.2
		}
		ws[1].N = 16
	}
	return ws
}

// system returns the workload's scaled dataset and geometry.
func (w workload) system() (*dataset.Dataset, *geometry.System, error) {
	ds, err := dataset.ByName(benchDataset)
	if err != nil {
		return nil, nil, err
	}
	scaled, err := ds.Scaled(w.Div)
	if err != nil {
		return nil, nil, err
	}
	sys, err := scaled.System(w.N)
	return scaled, sys, err
}

// plan is the decomposition fdkrecon derives from the workload's flags:
// one group, the default batch count.
func (w workload) plan() (*core.Plan, error) {
	_, sys, err := w.system()
	if err != nil {
		return nil, err
	}
	return core.NewPlan(sys, 1, w.Ranks, core.DefaultBatchCount)
}

// files names the workload's input, output and journal inside dir.
type files struct{ in, out, journal string }

func filesIn(dir string) files {
	return files{
		in:      filepath.Join(dir, "in.fbp"),
		out:     filepath.Join(dir, "v.fbk"),
		journal: filepath.Join(dir, "j"),
	}
}

// args is the fdkrecon command line of the workload. inproc drops -world,
// which gives the in-process run ranks-world must match byte for byte.
func (w workload) args(f files, inproc bool) []string {
	a := []string{"-in", f.in, "-dataset", benchDataset,
		"-div", strconv.Itoa(w.Div), "-n", strconv.Itoa(w.N), "-o", f.out}
	if w.Ranks > 1 {
		a = append(a, "-groups", "1", "-ranks", strconv.Itoa(w.Ranks), "-journal", f.journal)
	}
	if w.World > 1 && !inproc {
		a = append(a, "-world", strconv.Itoa(w.World))
	}
	return a
}

// setup is what a user does before the first reconstruction: synthesise
// the projections (seeded noise where the workload has it), write the
// container, and voxelise the phantom the result is compared against. It
// projects on one thread, for the reason the timed reps run on one.
func (w workload) setup(f files, seed int64) (*volume.Volume, error) {
	scaled, sys, err := w.system()
	if err != nil {
		return nil, err
	}
	stack, err := forward.Project(sys, scaled.Phantom(), scaled.FOV/2, 1)
	if err != nil {
		return nil, err
	}
	if w.Noisy {
		if err := forward.AddPoissonNoise(stack, &filter.Beer{Blank: photons}, seed); err != nil {
			return nil, err
		}
	}
	if err := storage.WriteStack(f.in, stack); err != nil {
		return nil, err
	}
	return scaled.Phantom().Voxelize(sys, scaled.FOV/2, 1)
}

// dims describes the problem for the provenance block.
type dims struct {
	InNU, InNP, InNV int
	OutN             int
	InBytes          int64
	OutBytes         int64
	Updates          int64
}

func (w workload) dims() (dims, error) {
	_, sys, err := w.system()
	if err != nil {
		return dims{}, err
	}
	return dims{
		InNU: sys.NU, InNP: sys.NP, InNV: sys.NV, OutN: w.N,
		InBytes:  4 * int64(sys.NU) * int64(sys.NP) * int64(sys.NV),
		OutBytes: volumeFileBytes(sys),
		Updates:  int64(sys.NX) * int64(sys.NY) * int64(sys.NZ) * int64(sys.NP),
	}, nil
}

// volumeFileBytes is the size of a complete .fbk: a 5×int32 header plus
// the voxels.
func volumeFileBytes(sys *geometry.System) int64 {
	return 20 + 4*int64(sys.NX)*int64(sys.NY)*int64(sys.NZ)
}
