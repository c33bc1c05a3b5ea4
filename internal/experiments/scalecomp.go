package experiments

import (
	"fmt"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/dessim"
	"distfdk/internal/perfmodel"
)

// scaleComparison makes Table 2's scalability column quantitative at paper
// scale: the simulated runtime of this work's decomposition versus the
// batch-only baseline, for the coffee bean at 4096³ across 16→1024
// devices. The baseline re-ships its projection share per volume chunk,
// reduces globally and funnels all output through one writer; the gap
// widens with the device count.
func scaleComparison() (*Table, error) {
	ds, err := dataset.ByName("coffee-bean")
	if err != nil {
		return nil, err
	}
	full := *ds
	full.NP = 6400
	sys, err := full.System(4096)
	if err != nil {
		return nil, err
	}
	const nr = 16
	const chunks = core.DefaultBatchCount
	t := &Table{
		Title:  "Table 2 at scale — this work vs batch-only decomposition (coffee bean 4096³, simulated)",
		Header: []string{"GPUs", "this work", "batch baseline", "advantage"},
	}
	for ngpus := nr; ngpus <= 1024; ngpus *= 2 {
		plan, err := core.NewPlan(sys, ngpus/nr, nr, chunks)
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
		base, err := perfmodel.BaselineRuntime(sys, ngpus, chunks, perfmodel.ABCI())
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(ngpus), fmtSeconds(sim.Runtime), fmtSeconds(base),
			fmt.Sprintf("%.1fx", base/sim.Runtime))
	}
	t.AddNote("baseline model: per-chunk projection re-upload, global ⌈log2 N⌉-round reduce, single root writer")
	t.AddNote("the advantage grows with scale — the paper's motivation for replacing batch decomposition")
	return t, nil
}
