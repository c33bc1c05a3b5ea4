package experiments

import (
	"fmt"

	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// Tiles demonstrates the full 3-D input decomposition (an extension beyond
// the paper's 2-D split): the output volume is cut into a grid of XY×Z
// tiles, each reconstructed from only its detector window (ComputeAB rows
// × TileColumns columns). The assembled volume must match the monolithic
// reconstruction, and the per-tile input shows the extra input reduction
// the third axis buys.
func Tiles(workers int) (*Table, error) {
	sc, err := BuildScenario("tomo_00029", 24, 48, workers)
	if err != nil {
		return nil, err
	}
	sys := sc.Sys

	// Monolithic reference.
	plan, err := core.NewPlan(sys, 1, 1, 4)
	if err != nil {
		return nil, err
	}
	full, err := core.NewVolumeSink(sys)
	if err != nil {
		return nil, err
	}
	if _, err := core.ReconstructSingle(core.ReconOptions{
		Plan: plan, Source: sc.Source, Device: device.New("full", 0, workers), Sink: full,
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Extension — 3-D tile decomposition (%s, %d³, 2×2×2 tiles)", sc.DS.Name, sys.NX),
		Header: []string{"tile", "rows", "columns", "input share"},
	}
	assembled, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	hx, hy, hz := sys.NX/2, sys.NY/2, sys.NZ/2
	var totalInput int64
	var fullInput int64
	for ti := 0; ti < 2; ti++ {
		for tj := 0; tj < 2; tj++ {
			for tk := 0; tk < 2; tk++ {
				tile, rep, err := core.ReconstructXYTile(core.XYTileOptions{
					Sys: sys, Source: sc.Source, Device: device.New("tile", 0, workers),
					I0: ti * hx, NI: hx, J0: tj * hy, NJ: hy, K0: tk * hz, NK: hz,
				})
				if err != nil {
					return nil, err
				}
				// Assemble the tile into its global position.
				for k := 0; k < hz; k++ {
					for j := 0; j < hy; j++ {
						for i := 0; i < hx; i++ {
							assembled.Set(ti*hx+i, tj*hy+j, tk*hz+k, tile.At(i, j, k))
						}
					}
				}
				totalInput += rep.InputBytes
				fullInput = rep.FullInputBytes
				t.AddRow(fmt.Sprintf("(%d,%d,%d)", ti, tj, tk),
					rep.Rows.String(), rep.Columns.String(),
					fmt.Sprintf("%.0f%%", 100*float64(rep.InputBytes)/float64(rep.FullInputBytes)))
			}
		}
	}
	stats, err := volume.Compare(full.V, assembled)
	if err != nil {
		return nil, err
	}
	t.AddNote("assembled tiles vs monolithic reconstruction: RMSE %.2e (float32 matrix-shift rounding only)", stats.RMSE)
	t.AddNote("total tile input %.0f%% of 8 full reads — rows and columns both shrink with the tile",
		100*float64(totalInput)/float64(8*fullInput))
	return t, nil
}
