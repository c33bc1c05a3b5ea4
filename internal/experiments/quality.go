package experiments

import (
	"fmt"

	"distfdk/internal/core"
	"distfdk/internal/volume"
)

// quality reproduces the paper's Section 6.1 measurement methodology: for
// each dataset's synthetic twin it forward-projects the phantom,
// reconstructs, and reports (a) the RMSE between the decomposed
// reconstruction and the monolithic reference — the paper's 1e-5 criterion
// against RTK — and (b) the RMSE against the ground-truth phantom, the
// image-quality figure.
func quality(workers int) (*Table, error) {
	t := &Table{
		Title:  "Numerical assessment (§6.1) — decomposition equivalence and image quality",
		Header: []string{"dataset", "output", "RMSE vs monolithic", "criterion (1e-5)", "RMSE vs phantom", "SSIM", "range"},
	}
	for _, name := range []string{"tomo_00030", "tomo_00029", "coffee-bean", "bumblebee"} {
		sc, err := BuildScenario(name, 32, 48, workers)
		if err != nil {
			return nil, err
		}
		// Decomposed reconstruction: 2 groups × 2 ranks.
		plan, err := core.NewPlan(sc.Sys, 2, 2, 4)
		if err != nil {
			return nil, err
		}
		decomposed, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		if _, err := reconstruct(core.ClusterOptions{Plan: plan, Source: sc.Source, Output: decomposed}); err != nil {
			return nil, err
		}
		// Monolithic reference: one rank, one batch.
		ref, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		refPlan, err := core.NewPlan(sc.Sys, 1, 1, 1)
		if err != nil {
			return nil, err
		}
		if _, err := reconstruct(core.ClusterOptions{
			Plan: refPlan, Source: sc.Source, Output: ref, WorkersPerRank: workers,
		}); err != nil {
			return nil, err
		}
		equiv, err := volume.Compare(ref.V, decomposed.V)
		if err != nil {
			return nil, err
		}
		verdict := "pass"
		if equiv.RMSE > 1e-5 {
			verdict = "FAIL"
		}
		truth, err := sc.DS.Phantom().Voxelize(sc.Sys, sc.DS.FOV/2, 2)
		if err != nil {
			return nil, err
		}
		qual, err := volume.Compare(truth, decomposed.V)
		if err != nil {
			return nil, err
		}
		ssim, err := volume.SSIM(truth, decomposed.V)
		if err != nil {
			return nil, err
		}
		lo, hi := decomposed.V.MinMax()
		t.AddRow(name, fmt.Sprintf("%d³", sc.Sys.NX),
			fmt.Sprintf("%.2e", equiv.RMSE), verdict,
			fmt.Sprintf("%.4f", qual.RMSE),
			fmt.Sprintf("%.3f", ssim),
			fmt.Sprintf("[%.2f, %.2f]", lo, hi))
	}
	t.AddNote("monolithic vs decomposed differ only by float32 reduction-tree reassociation")
	return t, nil
}
