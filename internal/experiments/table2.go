package experiments

import (
	"fmt"

	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/mpi"
)

// Table2 reproduces the substance of the paper's Table 2 by measurement
// instead of citation: it runs the same reconstruction under three
// decomposition schemes at equal world size and reports the traffic each
// one actually generated — host↔device volume (redundancy), reduction
// volume and message counts (communication complexity), and the minimum
// per-device input residency (the "lower-bound input size" column).
func Table2(workers int) (*Table, error) {
	const (
		div   = 24
		outN  = 48
		ranks = 4
	)
	sc, err := BuildScenario("tomo_00029", div, outN, workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table 2 — decomposition schemes, measured at %d ranks (%s, %d³ output)", ranks, sc.DS.Name, outN),
		Header: []string{"scheme", "input split", "H2D total", "reduce total", "msgs/rank", "min device input", "out-of-core"},
	}

	// Scheme 1: this work — 2-D input split (Nv and Np), segmented reduce.
	plan, err := core.NewPlan(sc.Sys, 2, 2, 4)
	if err != nil {
		return nil, err
	}
	sink, err := core.NewVolumeSink(sc.Sys)
	if err != nil {
		return nil, err
	}
	ours, err := core.RunDistributed(core.ClusterOptions{Plan: plan, Source: sc.Source, Output: sink})
	if err != nil {
		return nil, err
	}
	// Minimum device-resident input: one ring of the deepest slab rows
	// for the rank's Np share — O(Nu) per row, not O(Nu×Nv).
	ringBytes := device.Layout{NU: sc.Sys.NU, NP: sc.Sys.NP / 2, H: plan.MaxRingDepth()}.Bytes()
	t.AddRow("this work (2D split, segmented reduce)",
		"Nv and Np", fmtBytes(ours.TotalH2DBytes()), fmtBytes(ours.TotalReduceBytes()),
		fmt.Sprintf("%.1f", avgMsgs(ours.GroupStats)), fmtBytes(ringBytes), "yes")

	// Scheme 2: iFDK/RTK-style batch split, volume resident (1 chunk).
	sink2, _ := core.NewVolumeSink(sc.Sys)
	base1, err := core.RunBatchBaseline(core.BaselineOptions{
		Sys: sc.Sys, Ranks: ranks, ChunkCount: 1, Source: sc.Source, Output: sink2,
	})
	if err != nil {
		return nil, err
	}
	shareBytes := int64(sc.Sys.NU) * int64(sc.Sys.NV) * int64(sc.Sys.NP/ranks) * 4
	volBytes := int64(sc.Sys.NX) * int64(sc.Sys.NY) * int64(sc.Sys.NZ) * 4
	t.AddRow("batch split, volume resident (iFDK-like)",
		"Np only", fmtBytes(base1.TotalH2DBytes()), fmtBytes(base1.TotalReduceBytes()),
		fmt.Sprintf("%.1f", avgMsgs(base1.WorldStats)), fmtBytes(shareBytes+volBytes), "no")

	// Scheme 3: batch split with chunked volume (Lu et al.-like): gains
	// out-of-core but re-ships the projections per chunk.
	sink3, _ := core.NewVolumeSink(sc.Sys)
	base4, err := core.RunBatchBaseline(core.BaselineOptions{
		Sys: sc.Sys, Ranks: ranks, ChunkCount: 4, Source: sc.Source, Output: sink3,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("batch split, 4 volume chunks (Lu et al.-like)",
		"Np only", fmtBytes(base4.TotalH2DBytes()), fmtBytes(base4.TotalReduceBytes()),
		fmt.Sprintf("%.1f", avgMsgs(base4.WorldStats)), fmtBytes(shareBytes), "redundant reloads")

	t.AddNote("all three schemes reconstruct the same volume (verified by the test suite)")
	t.AddNote("segmented reduce moves (Nr−1)·Vol = %s vs the global reduce's (N−1)·Vol = %s",
		fmtBytes(ours.TotalReduceBytes()), fmtBytes(base1.TotalReduceBytes()))
	t.AddNote("2-D split ships each projection byte once: %s vs %s for 4-chunk batch splitting",
		fmtBytes(ours.TotalH2DBytes()), fmtBytes(base4.TotalH2DBytes()))
	return t, nil
}

func avgMsgs(stats []mpi.Stats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var total int64
	for _, s := range stats {
		total += s.MessagesSent
	}
	return float64(total) / float64(len(stats))
}

// Table4 prints the geometric-correction registry (the paper's Table 4),
// verifying it against the projection-matrix path.
func Table4() (*Table, error) {
	t := &Table{
		Title:  "Table 4 — geometric correction parameters per dataset",
		Header: []string{"dataset", "σu (px)", "σv (px)", "σcor (mm)", "λdark", "λblank", "magnification"},
	}
	for _, name := range []string{"coffee-bean", "bumblebee", "tomo_00027", "tomo_00028", "tomo_00029", "tomo_00030"} {
		sc, err := BuildScenarioGeometryOnly(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%g", sc.SigmaU), fmt.Sprintf("%g", sc.SigmaV), fmt.Sprintf("%g", sc.SigmaCOR),
			fmt.Sprintf("%g", sc.Dark), fmt.Sprintf("%g", sc.Blank),
			fmt.Sprintf("%.2f", sc.Magnification()))
	}
	t.AddNote("corrections are folded into the 3×4 projection matrix (Section 4.1); unit tests verify the pixel shifts")
	return t, nil
}
