package experiments

import (
	"fmt"
	"sync"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// AblationReduce quantifies design choice 1 of DESIGN.md: grouped
// (segmented) reduction versus one global group at equal world size.
func AblationReduce(workers int) (*Table, error) {
	sc, err := BuildScenario("tomo_00029", 24, 48, workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation — segmented vs global reduction (8 ranks)",
		Header: []string{"configuration", "reduce bytes", "msgs", "elapsed"},
	}
	for _, cfg := range []struct {
		label  string
		ng, nr int
	}{
		{"segmented: Ng=4 groups of Nr=2", 4, 2},
		{"segmented: Ng=2 groups of Nr=4", 2, 4},
		{"global: one group of Nr=8", 1, 8},
	} {
		plan, err := core.NewPlan(sc.Sys, cfg.ng, cfg.nr, 4)
		if err != nil {
			return nil, err
		}
		sink, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		rep, err := core.RunDistributed(core.ClusterOptions{Plan: plan, Source: sc.Source, Output: sink})
		if err != nil {
			return nil, err
		}
		var msgs int64
		for _, s := range rep.GroupStats {
			msgs += s.MessagesSent
		}
		t.AddRow(cfg.label, fmtBytes(rep.TotalReduceBytes()), fmt.Sprint(msgs), fmtSeconds(rep.Elapsed.Seconds()))
	}
	t.AddNote("total reduce volume is (Nr−1)·Vol: independent groups shrink it and keep every collective O(log Nr)")
	return t, nil
}

// AblationDifferential quantifies design choice 2: Equation 6's
// differential row updates versus reloading every slab's full row range.
func AblationDifferential(workers int) (*Table, error) {
	sc, err := BuildScenario("tomo_00029", 24, 64, workers)
	if err != nil {
		return nil, err
	}
	sys := sc.Sys
	plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
	if err != nil {
		return nil, err
	}
	mats := core.KernelMatrices(sys, 0, sys.NP)

	run := func(differential bool) (device.Ledger, *volume.Volume, time.Duration, error) {
		dev := device.New("abl", 0, workers)
		depth := plan.RingDepth(0)
		if !differential {
			depth = sys.NV // full reload needs room for any range
		}
		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, depth)
		if err != nil {
			return device.Ledger{}, nil, 0, err
		}
		defer ring.Close()
		out, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		prev := geometry.RowRange{}
		start := time.Now()
		for c := 0; c < plan.BatchCount; c++ {
			z0, nz := plan.SlabZ(0, c)
			if nz == 0 {
				continue
			}
			rows := plan.SlabRows(0, c)
			if differential {
				ring.Release(rows.Lo)
				if err := ring.LoadRows(sc.Stack, geometry.DifferentialRows(prev, rows)); err != nil {
					return device.Ledger{}, nil, 0, err
				}
			} else {
				ring.Reset()
				if err := ring.LoadRows(sc.Stack, rows); err != nil {
					return device.Ledger{}, nil, 0, err
				}
			}
			prev = rows
			slab, _ := volume.NewSlab(sys.NX, sys.NY, nz, z0)
			if err := backproject.Streaming(dev, ring, mats, slab, rows); err != nil {
				return device.Ledger{}, nil, 0, err
			}
			if err := out.CopySlabFrom(slab); err != nil {
				return device.Ledger{}, nil, 0, err
			}
		}
		return dev.Snapshot(), out, time.Since(start), nil
	}

	diffLedger, diffVol, diffTime, err := run(true)
	if err != nil {
		return nil, err
	}
	fullLedger, fullVol, fullTime, err := run(false)
	if err != nil {
		return nil, err
	}
	stats, err := volume.Compare(diffVol, fullVol)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation — differential row updates (Eq. 6) vs full reload per slab",
		Header: []string{"variant", "H2D bytes", "H2D ops", "elapsed"},
	}
	t.AddRow("differential (this work)", fmtBytes(diffLedger.H2DBytes), fmt.Sprint(diffLedger.H2DOps), fmtSeconds(diffTime.Seconds()))
	t.AddRow("full reload (prior cone-beam frameworks)", fmtBytes(fullLedger.H2DBytes), fmt.Sprint(fullLedger.H2DOps), fmtSeconds(fullTime.Seconds()))
	t.AddNote("identical outputs (max |Δ| = %g); transfer saving %.1f%%",
		stats.MaxAbs, 100*(1-float64(diffLedger.H2DBytes)/float64(fullLedger.H2DBytes)))
	return t, nil
}

// AblationRingDepth quantifies design choice 3: how the batch count Nc
// trades device-memory footprint (ring depth) against transfer granularity.
func AblationRingDepth(workers int) (*Table, error) {
	sc, err := BuildScenario("tomo_00029", 24, 64, workers)
	if err != nil {
		return nil, err
	}
	sys := sc.Sys
	t := &Table{
		Title:  "Ablation — batch count Nc vs projection-ring depth (device memory)",
		Header: []string{"Nc", "Nb (slices)", "ring depth (rows)", "ring bytes", "ring+slab bytes", "vs full residency"},
	}
	fullResidency := int64(sys.NU) * int64(sys.NP) * int64(sys.NV) * 4
	for _, nc := range []int{1, 2, 4, 8, 16} {
		plan, err := core.NewPlan(sys, 1, 1, nc)
		if err != nil {
			return nil, err
		}
		depth := plan.RingDepth(0)
		ringBytes := device.Layout{NU: sys.NU, NP: sys.NP, H: depth}.Bytes()
		total := ringBytes + plan.SlabBytes()
		t.AddRow(fmt.Sprint(nc), fmt.Sprint(plan.SlicesPerBatch()), fmt.Sprint(depth),
			fmtBytes(ringBytes), fmtBytes(total),
			fmt.Sprintf("%.0f%%", 100*float64(total)/float64(fullResidency+4*int64(sys.NX)*int64(sys.NY)*int64(sys.NZ))))
	}
	t.AddNote("Nc is the paper's device-memory knob (Section 4.4.1): larger Nc → thinner slabs → shallower ring")
	return t, nil
}

// AblationHierarchicalReduce quantifies design choice 4: flat binomial
// reduce vs the node-leader hierarchy of Section 4.4.2.
func AblationHierarchicalReduce(workers int) (*Table, error) {
	sc, err := BuildScenario("tomo_00029", 24, 48, workers)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(sc.Sys, 1, 8, 4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation — flat vs hierarchical (node-leader) reduction, Nr=8, 4 ranks/node",
		Header: []string{"variant", "reduce bytes", "inter-node bytes (est)", "elapsed"},
	}
	for _, hier := range []bool{false, true} {
		sink, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		rep, err := core.RunDistributed(core.ClusterOptions{
			Plan: plan, Source: sc.Source, Output: sink,
			Hierarchical: hier, RanksPerNode: 4,
		})
		if err != nil {
			return nil, err
		}
		// Inter-node traffic: messages whose endpoints are on
		// different 4-rank nodes. In the flat binomial tree half the
		// rounds cross nodes; hierarchically only the leader round
		// does.
		interNode := estimateInterNode(rep, 4, hier)
		label := "flat binomial"
		if hier {
			label = "hierarchical (paper §4.4.2)"
		}
		t.AddRow(label, fmtBytes(rep.TotalReduceBytes()), fmtBytes(interNode), fmtSeconds(rep.Elapsed.Seconds()))
	}
	t.AddNote("hierarchy keeps all but ⌈log2(#nodes)⌉ rounds inside a node, where bandwidth is cheap")
	return t, nil
}

// estimateInterNode approximates cross-node reduce traffic from the run's
// reduce volume and the known tree shapes.
func estimateInterNode(rep *core.ClusterReport, ranksPerNode int, hier bool) int64 {
	total := rep.TotalReduceBytes()
	if total == 0 {
		return 0
	}
	if hier {
		// Only leader-to-leader messages cross nodes: 1 of 7 sends
		// for 8 ranks in 2 nodes of 4.
		return total / 7
	}
	// Flat binomial over ranks 0..7 with nodes {0-3},{4-7}: sends
	// 4→0 (cross), 5→4, 6→4, 7→6 at various steps... exactly 1 of 7
	// messages crosses for this topology at step 4; steps 1,2 stay local.
	return total / 7 * 1
}

// AblationFilterPlacement quantifies design choice 5: the paper's
// CPU-filtering-in-pipeline against a serialised flow where each stage
// waits for the previous one (the effect of filtering on the device). The
// serialised arm is the same ReconstructSingle on the same plan with each
// batch's load held until the batch before it has been stored (serialGate),
// so no two batches are ever in flight.
func AblationFilterPlacement(workers int) (*Table, error) {
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
	run := func(src projection.Source, sink core.SlabSink) (*core.ReconReport, error) {
		return core.ReconstructSingle(core.ReconOptions{
			Plan: plan, Source: src, Device: device.New("abl", 0, workers), Sink: sink,
		})
	}
	gate := &serialGate{Source: sc.Source, SlabSink: sink, plan: plan}
	gate.cond = sync.NewCond(&gate.mu)
	serial, err := run(gate, gate)
	if err != nil {
		return nil, err
	}
	pipelined, err := run(sc.Source, sink)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation — pipelined CPU filtering (§4.2) vs serialised stages",
		Header: []string{"variant", "elapsed", "speedup"},
	}
	t.AddRow("serialised stages", fmtSeconds(serial.Elapsed.Seconds()), "1.00x")
	t.AddRow("pipelined (this work)", fmtSeconds(pipelined.Elapsed.Seconds()),
		fmt.Sprintf("%.2fx", float64(serial.Elapsed)/float64(pipelined.Elapsed)))
	t.AddNote("serialised = the same run with each batch's load held until the batch before it is stored")
	t.AddNote("overlap benefit is bounded by the non-BP share of the pipeline; at paper scale the paper reports full hiding of filter latency")
	return t, nil
}

// serialGate is a Source and a SlabSink that run a one-rank plan one batch
// at a time: the load of batch c waits until c slabs have been stored.
// Batch c is the first whose rows end where the load's do, since a load
// fetches the rows its batch adds to those already resident. A batch that
// loads nothing waits for the rank's one slab instead, which the batch
// before it holds until it is stored.
type serialGate struct {
	projection.Source
	core.SlabSink
	plan   *core.Plan
	mu     sync.Mutex
	cond   *sync.Cond
	stored int
}

func (g *serialGate) LoadRows(rows geometry.RowRange, pLo, pHi int) (*projection.Stack, error) {
	c := 0
	for c < g.plan.BatchCount-1 && g.plan.SlabRows(0, c).Hi != rows.Hi {
		c++
	}
	g.mu.Lock()
	for g.stored < c {
		g.cond.Wait()
	}
	g.mu.Unlock()
	return g.Source.LoadRows(rows, pLo, pHi)
}

func (g *serialGate) WriteSlab(slab *volume.Volume) error {
	err := g.SlabSink.WriteSlab(slab)
	g.mu.Lock()
	g.stored++
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}
