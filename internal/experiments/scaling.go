package experiments

import (
	"fmt"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/dessim"
	"distfdk/internal/perfmodel"
)

// fig13Config describes one Figure 13 panel: dataset, output size and the
// fixed group width Nr the paper used.
type fig13Config struct {
	dataset string
	np      int // paper NP rounded to divide evenly by nr
	nr      int
	rebin   bool // the paper's "Coffee bean 2x" detector rebinning
}

// fig13Panels mirrors the paper's four panels (coffee bean Nr=16, coffee
// bean 2× rebin Nr=8, bumblebee Nr=8, tomo_00029 Nr=4).
func fig13Panels() []fig13Config {
	return []fig13Config{
		{"coffee-bean", 6400, 16, false},
		{"coffee-bean", 6400, 8, true},
		{"bumblebee", 3136, 8, false},
		{"tomo_00029", 1800, 4, false},
	}
}

// panelDataset materialises a panel's dataset, applying the rebinning.
func panelDataset(cfg fig13Config) (*dataset.Dataset, error) {
	ds, err := dataset.ByName(cfg.dataset)
	if err != nil {
		return nil, err
	}
	if cfg.rebin {
		ds = ds.Rebin2x()
	}
	full := *ds
	full.NP = cfg.np
	return &full, nil
}

// fig13 reproduces the strong-scaling study at paper scale (4096³ outputs,
// 8→1024 GPUs) through the calibrated simulator, reporting the simulated
// ("measured") and Equation-17 ("projected") series side by side.
func fig13() (*Table, error) {
	t := &Table{
		Title:  "Figure 13 — strong scaling to 4096³ outputs (simulated at ABCI parameters)",
		Header: []string{"dataset", "Nr", "GPUs", "measured", "projected", "speedup vs min GPUs"},
	}
	for _, cfg := range fig13Panels() {
		full, err := panelDataset(cfg)
		if err != nil {
			return nil, err
		}
		sys, err := full.System(4096)
		if err != nil {
			return nil, err
		}
		counts := []int{}
		for n := cfg.nr; n <= 1024; n *= 2 {
			counts = append(counts, n)
		}
		points, err := dessim.StrongScaling(func(ngpus int) (*perfmodel.Model, error) {
			plan, err := core.NewPlan(sys, ngpus/cfg.nr, cfg.nr, core.DefaultBatchCount)
			if err != nil {
				return nil, err
			}
			return perfmodel.New(plan, perfmodel.ABCI())
		}, counts)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", full.Name, err)
		}
		base := points[0].Measured
		for _, pt := range points {
			t.AddRow(full.Name, fmt.Sprint(cfg.nr), fmt.Sprint(pt.NGPUs),
				fmtSeconds(pt.Measured), fmtSeconds(pt.Projected),
				fmt.Sprintf("%.1fx", base/pt.Measured))
		}
	}
	t.AddNote("paper: coffee bean 489.5s@16 → 15.3s@1024; bumblebee 430.0s@8 → 12.6s@1024; tomo_00029 384.6s@4 → 11.5s@1024")
	t.AddNote("the shape to match: near-linear to ~256 GPUs, flattening beyond as I/O and reduction dominate")
	return t, nil
}

// fig13Real anchors the simulated series with a real in-process strong
// scaling at laptop scale: the same code path over 1, 2 and 4 ranks.
func fig13Real(workers int) (*Table, error) {
	sc, err := BuildScenario("tomo_00029", 24, 64, workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 13 (real anchor) — in-process strong scaling (%s, %d³)", sc.DS.Name, sc.Sys.NX),
		Header: []string{"ranks", "Ng×Nr", "elapsed", "speedup"},
	}
	var base time.Duration
	for _, cfg := range []struct{ ng, nr int }{{1, 1}, {1, 2}, {2, 2}} {
		plan, err := core.NewPlan(sc.Sys, cfg.ng, cfg.nr, 4)
		if err != nil {
			return nil, err
		}
		sink, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		rep, err := reconstruct(core.ClusterOptions{Plan: plan, Source: sc.Source, Output: sink})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = rep.Elapsed
		}
		t.AddRow(fmt.Sprint(cfg.ng*cfg.nr), fmt.Sprintf("%dx%d", cfg.ng, cfg.nr),
			fmtSeconds(rep.Elapsed.Seconds()),
			fmt.Sprintf("%.2fx", float64(base)/float64(rep.Elapsed)))
	}
	t.AddNote("ranks are goroutines on this machine's cores; scaling saturates at the physical core count")
	return t, nil
}

// fig14 reproduces the weak-scaling study: the projection count grows with
// the device count while the 4096³ output is fixed, so runtime should sit
// on the store-bandwidth plateau (~9 s at 28.5 GB/s).
func fig14() (*Table, error) {
	t := &Table{
		Title:  "Figure 14 — weak scaling to 4096³ outputs (simulated at ABCI parameters)",
		Header: []string{"dataset", "GPUs", "Np", "Nr", "measured", "projected"},
	}
	panels := []struct {
		dataset string
		npBase  int // Np at 1024 GPUs
		nrBase  int // Nr at 1024 GPUs -> scaled proportionally
		nrDiv   int
	}{
		{"coffee-bean", 6400, 16, 64},
		{"bumblebee", 3136, 8, 128},
	}
	for _, p := range panels {
		ds, err := dataset.ByName(p.dataset)
		if err != nil {
			return nil, err
		}
		for _, ngpus := range []int{64, 128, 256, 512, 1024} {
			full := *ds
			full.NP = p.npBase * ngpus / 1024
			nr := ngpus / p.nrDiv
			if nr < 1 {
				nr = 1
			}
			for full.NP%nr != 0 {
				full.NP++
			}
			sys, err := full.System(4096)
			if err != nil {
				return nil, err
			}
			plan, err := core.NewPlan(sys, ngpus/nr, nr, core.DefaultBatchCount)
			if err != nil {
				return nil, err
			}
			m, err := perfmodel.New(plan, perfmodel.ABCI())
			if err != nil {
				return nil, err
			}
			sim, err := dessim.Simulate(m)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.dataset, fmt.Sprint(ngpus), fmt.Sprint(full.NP), fmt.Sprint(nr),
				fmtSeconds(sim.Runtime), fmtSeconds(m.WorstRuntime()))
		}
	}
	t.AddNote("paper: ~9 s plateau set by storing one 4096³ volume at BWstore ≈ 28.5 GB/s; measured 12.9–15.3 s (coffee bean), 11.5–12.7 s (bumblebee)")
	return t, nil
}

// fig15 reproduces the throughput study: GUPS versus device count for the
// 4096³ reconstructions of three datasets.
func fig15() (*Table, error) {
	t := &Table{
		Title:  "Figure 15 — GUPS when generating 4096³ volumes (simulated at ABCI parameters)",
		Header: []string{"dataset", "GPUs", "GUPS", "runtime"},
	}
	for _, cfg := range fig13Panels() {
		if cfg.rebin {
			continue // Figure 15 plots the three primary datasets
		}
		full, err := panelDataset(cfg)
		if err != nil {
			return nil, err
		}
		sys, err := full.System(4096)
		if err != nil {
			return nil, err
		}
		for ngpus := cfg.nr; ngpus <= 1024; ngpus *= 4 {
			plan, err := core.NewPlan(sys, ngpus/cfg.nr, cfg.nr, core.DefaultBatchCount)
			if err != nil {
				return nil, err
			}
			m, err := perfmodel.New(plan, perfmodel.ABCI())
			if err != nil {
				return nil, err
			}
			sim, err := dessim.Simulate(m)
			if err != nil {
				return nil, err
			}
			t.AddRow(cfg.dataset, fmt.Sprint(ngpus),
				fmt.Sprintf("%.0f", perfmodel.GUPS(sys, sim.Runtime)),
				fmtSeconds(sim.Runtime))
		}
	}
	t.AddNote("paper's Figure 15 peaks around 35000 GUPS for the coffee bean at 1024 GPUs")
	return t, nil
}
