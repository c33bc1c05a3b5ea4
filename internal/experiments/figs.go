package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/dessim"
	"distfdk/internal/perfmodel"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// fig8 reproduces Figure 8: a reconstructed slice of tomo_00030 produced
// through the segmented MPI_Reduce of a four-rank group, written as a PGM
// image for visual inspection.
func fig8(outDir string, workers int) (*Table, error) {
	const div, outN = 4, 64
	sc, err := BuildScenario("tomo_00030", div, outN, workers)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(sc.Sys, 1, 4, 4)
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
	path := filepath.Join(outDir, "fig8_tomo00030_slice.pgm")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := sink.V.SavePGM(path, outN/2, 0, 0); err != nil {
		return nil, err
	}
	lo, hi := sink.V.MinMax()
	t := &Table{
		Title:  "Figure 8 — tomo_00030 slice via segmented MPI_Reduce (Nr=4)",
		Header: []string{"artifact", "value"},
	}
	t.AddRow("slice image", path)
	t.AddRow("volume range", fmt.Sprintf("[%.3f, %.3f]", lo, hi))
	t.AddRow("reduce traffic", fmtBytes(rep.TotalReduceBytes()))
	t.AddNote("Shepp–Logan stands in for the TomoBank scan; the reduce path is identical")
	return t, nil
}

// fig10 reproduces Figure 10's pipeline timelines. Part (a) is a real
// pipelined single-device run of a scaled tomo_00029 with the stage spans
// rendered as an ASCII Gantt; part (b) is the 4096³ bumblebee at 128
// devices in the discrete-event simulator.
func fig10(outDir string, workers int) (*Table, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	// (a) Real run.
	sc, err := BuildScenario("tomo_00029", 24, 64, workers)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(sc.Sys, 1, 1, core.DefaultBatchCount)
	if err != nil {
		return nil, err
	}
	sink, err := core.NewVolumeSink(sc.Sys)
	if err != nil {
		return nil, err
	}
	run := telemetry.NewRun(1)
	if _, err := reconstruct(core.ClusterOptions{
		Plan: plan, Source: sc.Source, Output: sink, WorkersPerRank: workers, Telemetry: run,
	}); err != nil {
		return nil, err
	}
	spans := run.Rank(0).Spans()
	realChart := telemetry.RenderGantt(spans, []string{"load", "filter", "backproject", "store"}, 100)

	// (b) Paper-scale simulation: bumblebee → 4096³ on 128 devices.
	ds, err := dataset.ByName("bumblebee")
	if err != nil {
		return nil, err
	}
	full := *ds
	full.NP = 3136 // divisible by Nr=2 and 8 (paper uses 3142)
	sys, err := full.System(4096)
	if err != nil {
		return nil, err
	}
	paperPlan, err := core.NewPlan(sys, 64, 2, core.DefaultBatchCount)
	if err != nil {
		return nil, err
	}
	model, err := perfmodel.New(paperPlan, perfmodel.ABCI())
	if err != nil {
		return nil, err
	}
	sim, err := dessim.Simulate(model)
	if err != nil {
		return nil, err
	}
	simChart := renderVSpans(sim.Spans, 0, 100, sim.Runtime)

	path := filepath.Join(outDir, "fig10_pipeline_timelines.txt")
	content := fmt.Sprintf("(a) real scaled run — %s, %d³ output\n%s\n(b) simulated paper scale — bumblebee 4096³, 128 devices (group 0 of 64), runtime %.1fs\n%s",
		sc.DS.Name, sc.Sys.NX, realChart, sim.Runtime, simChart)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return nil, err
	}

	t := &Table{Title: "Figure 10 — end-to-end pipeline timelines", Header: []string{"artifact", "value"}}
	t.AddRow("timeline file", path)
	st := telemetry.ComputeSpanStats(spans)
	t.AddRow("real run total", fmtSeconds(st.Total.Seconds()))
	serial := st.Busy["load"] + st.Busy["filter"] + st.Busy["backproject"] + st.Busy["store"]
	t.AddRow("real overlap factor", fmt.Sprintf("%.2fx (serial %s / wall %s)",
		serial.Seconds()/st.Total.Seconds(), fmtSeconds(serial.Seconds()), fmtSeconds(st.Total.Seconds())))
	t.AddRow("simulated 128-GPU runtime", fmtSeconds(sim.Runtime))
	t.AddNote("paper's Figure 10b reports ~23.3 s for bumblebee 4096³ on 128 GPUs including I/O")
	return t, nil
}

// renderVSpans draws a Figure 10-style chart of one group's virtual-time
// spans.
func renderVSpans(spans []dessim.VSpan, group, width int, total float64) string {
	stages := []string{"cpu", "gpu", "reduce", "store"}
	var b strings.Builder
	for _, stage := range stages {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range spans {
			if s.Group != group || s.Stage != stage {
				continue
			}
			lo := int(s.Start / total * float64(width))
			hi := int(s.End / total * float64(width))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = byte('0' + s.Batch%10)
			}
		}
		fmt.Fprintf(&b, "%-7s |%s|\n", stage, string(row))
	}
	return b.String()
}

// fig11 reproduces Figure 11: reconstructions of the coffee bean and
// bumblebee stand-ins with orthogonal slice exports.
func fig11(outDir string, workers int) (*Table, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 11 — real-world dataset reconstructions", Header: []string{"dataset", "output", "RMSE vs phantom", "slices"}}
	for _, name := range []string{"coffee-bean", "bumblebee"} {
		sc, err := BuildScenario(name, 32, 64, workers)
		if err != nil {
			return nil, err
		}
		plan, err := core.NewPlan(sc.Sys, 1, 1, 4)
		if err != nil {
			return nil, err
		}
		sink, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		if _, err := reconstruct(core.ClusterOptions{
			Plan: plan, Source: sc.Source, Output: sink, WorkersPerRank: workers,
		}); err != nil {
			return nil, err
		}
		var paths []string
		k := sc.Sys.NZ / 2
		axial := filepath.Join(outDir, fmt.Sprintf("fig11_%s_axial.pgm", name))
		if err := sink.V.SavePGM(axial, k, 0, 0); err != nil {
			return nil, err
		}
		paths = append(paths, axial)
		for _, cut := range []struct {
			suffix  string
			extract func(*volume.Volume) *volume.Volume
		}{
			{"coronal", extractCoronal}, {"sagittal", extractSagittal},
		} {
			img := cut.extract(sink.V)
			p := filepath.Join(outDir, fmt.Sprintf("fig11_%s_%s.pgm", name, cut.suffix))
			if err := img.SavePGM(p, 0, 0, 0); err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
		truth, err := sc.DS.Phantom().Voxelize(sc.Sys, sc.DS.FOV/2, 2)
		if err != nil {
			return nil, err
		}
		stats, err := volume.Compare(truth, sink.V)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprintf("%d³", sc.Sys.NX), fmt.Sprintf("%.4f", stats.RMSE), strings.Join(paths, ", "))
	}
	t.AddNote("synthetic phantoms stand in for the original scans (DESIGN.md, substitution table)")
	return t, nil
}

// extractCoronal returns the central XZ plane as a 1-slice volume.
func extractCoronal(v *volume.Volume) *volume.Volume {
	out, _ := volume.New(v.NX, v.NZ, 1)
	j := v.NY / 2
	for k := 0; k < v.NZ; k++ {
		for i := 0; i < v.NX; i++ {
			out.Set(i, k, 0, v.At(i, j, k))
		}
	}
	return out
}

// extractSagittal returns the central YZ plane as a 1-slice volume.
func extractSagittal(v *volume.Volume) *volume.Volume {
	out, _ := volume.New(v.NY, v.NZ, 1)
	i := v.NX / 2
	for k := 0; k < v.NZ; k++ {
		for j := 0; j < v.NY; j++ {
			out.Set(j, k, 0, v.At(i, j, k))
		}
	}
	return out
}
