package experiments

import (
	"errors"
	"fmt"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/perfmodel"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// Table5Real runs the out-of-core single-device evaluation for real on a
// scaled tomo_00030 twin: output sizes grow until the RTK-style baseline
// (whole volume + whole projections resident) no longer fits the device
// budget, while the streaming decomposition keeps working — the ✗ pattern
// of the paper's Table 5.
func Table5Real(workers int) (*Table, error) {
	const div = 8
	outSizes := []int{32, 48, 64, 96}
	sc, err := BuildScenario("tomo_00030", div, outSizes[0], workers)
	if err != nil {
		return nil, err
	}
	// Device budget: the projection stack plus a 64³ volume fits, 96³
	// does not — mirroring V100's 16 GB against a 32 GB 2048³ volume.
	stackBytes := sc.Stack.Bytes()
	budget := stackBytes + 4*int64(64*64*64) + 4096

	t := &Table{
		Title: fmt.Sprintf("Table 5 (real, scaled) — out-of-core on one simulated device (%s, input %s, budget %s)",
			sc.DS.Name, fmtBytes(stackBytes), fmtBytes(budget)),
		Header: []string{"output", "T_load+flt", "T_bp", "T_store", "T_total", "ours GUPS", "RTK GUPS", "RTK"},
	}

	for _, n := range outSizes {
		scN, err := BuildScenario("tomo_00030", div, n, workers)
		if err != nil {
			return nil, err
		}
		plan, err := core.NewPlan(scN.Sys, 1, 1, core.DefaultBatchCount)
		if err != nil {
			return nil, err
		}
		dev := device.New("v100-like", budget, workers)
		sink, err := core.NewVolumeSink(scN.Sys)
		if err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry()
		rep, err := core.ReconstructSingle(core.ReconOptions{
			Plan: plan, Source: scN.Source, Device: dev, Sink: sink, Telemetry: reg,
		})
		if err != nil {
			return nil, fmt.Errorf("table5: ours at %d³: %w", n, err)
		}
		busy := telemetry.ComputeSpanStats(reg.Spans()).Busy
		oursGUPS := rep.Ledger.GUPS(busy["backproject"])

		rtkGUPS, rtkStatus := runRTKBaseline(scN, budget, workers)
		t.AddRow(fmt.Sprintf("%d³ (%s)", n, fmtBytes(4*int64(n)*int64(n)*int64(n))),
			fmtSeconds(busy["load"].Seconds()+busy["filter"].Seconds()),
			fmtSeconds(busy["backproject"].Seconds()),
			fmtSeconds(busy["store"].Seconds()),
			fmtSeconds(rep.Elapsed.Seconds()),
			fmt.Sprintf("%.3f", oursGUPS),
			rtkGUPS, rtkStatus)
	}
	t.AddNote("RTK-style baseline needs projections+volume resident; ✗ marks device-memory exhaustion")
	t.AddNote("streaming kernel ships each projection row to the device exactly once regardless of output size")
	return t, nil
}

// runRTKBaseline reconstructs with the conventional batch kernel under the
// same device budget, returning its kernel GUPS or ✗.
func runRTKBaseline(sc *Scenario, budget int64, workers int) (gups, status string) {
	sys := sc.Sys
	dev := device.New("rtk", budget, workers)
	volBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(sys.NZ)
	if err := dev.Alloc(sc.Stack.Bytes() + volBytes); err != nil {
		if errors.Is(err, device.ErrOutOfMemory) {
			return "—", "✗ (OOM)"
		}
		return "—", "error"
	}
	defer dev.Free(sc.Stack.Bytes() + volBytes)
	// Copy + filter like the RTK flow (filter on device is emulated by
	// filtering before upload; kernel time is what GUPS measures).
	st := &projection.Stack{NU: sc.Stack.NU, NP: sc.Stack.NP, NV: sc.Stack.NV,
		Data: append([]float32(nil), sc.Stack.Data...)}
	fdk, err := core.NewFilter(sys, 0)
	if err != nil {
		return "—", "error"
	}
	if err := fdk.FilterRows(st.Data, st.NV*st.NP, func(i int) int { return i / st.NP }, workers); err != nil {
		return "—", "error"
	}
	dev.RecordH2D(st.Bytes(), 1)
	vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return "—", "error"
	}
	start := time.Now()
	if err := backproject.Batch(dev, st, core.KernelMatrices(sys, 0, sys.NP), vol); err != nil {
		return "—", "error"
	}
	elapsed := time.Since(start)
	return fmt.Sprintf("%.3f", dev.Snapshot().GUPS(elapsed)), "ok"
}

// Table5Modeled evaluates the paper-size Table 5 rows (512³ → 4096³ on
// V100/A100-class devices) with the Section 5 performance model under the
// published ABCI parameters. It reports the same columns as the paper and
// flags the configurations where the conventional kernel exceeds device
// memory.
func Table5Modeled() (*Table, error) {
	t := &Table{
		Title:  "Table 5 (modeled, paper scale) — ABCI parameters, Section 5 model",
		Header: []string{"dataset", "device", "output", "T_load", "T_flt", "T_H2D", "T_bp", "T_D2H", "T_store", "T_total", "conventional"},
	}
	devices := []struct {
		name string
		mem  int64
		thbp float64
	}{
		{"V100 16GB", device.V100MemBytes, 118e9},
		{"A100 40GB", device.A100MemBytes, 155e9},
	}
	for _, dsName := range []string{"tomo_00030", "tomo_00029"} {
		ds, err := dataset.ByName(dsName)
		if err != nil {
			return nil, err
		}
		for _, dv := range devices {
			for _, n := range []int{512, 1024, 2048, 4096} {
				sys, err := ds.System(n)
				if err != nil {
					return nil, err
				}
				plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
				if err != nil {
					return nil, err
				}
				params := perfmodel.ABCI()
				params.THBP = dv.thbp
				m, err := perfmodel.New(plan, params)
				if err != nil {
					return nil, err
				}
				var load, flt, h2d, bp, d2h, store float64
				for c := 0; c < plan.BatchCount; c++ {
					b := m.Batch(0, c)
					load += b.Load
					flt += b.Filter
					h2d += b.H2D
					bp += b.BP
					d2h += b.D2H
					store += b.Store
				}
				volBytes := 4 * int64(n) * int64(n) * int64(n)
				conventional := "ok"
				if ds.InputBytes()+volBytes > dv.mem {
					conventional = "✗ (OOM)"
				}
				t.AddRow(dsName, dv.name, fmt.Sprintf("%d³ (%s)", n, fmtBytes(volBytes)),
					fmtSeconds(load), fmtSeconds(flt), fmtSeconds(h2d), fmtSeconds(bp),
					fmtSeconds(d2h), fmtSeconds(store), fmtSeconds(m.Runtime(0)), conventional)
			}
		}
	}
	t.AddNote("paper measured 2048³ of tomo_00029 on V100 in 137.7 s and 4096³ in 1028.8 s; the model should land in the same order")
	t.AddNote("our streaming kernel never hits the ✗ column: its residency is one projection-row ring + one slab")
	return t, nil
}
