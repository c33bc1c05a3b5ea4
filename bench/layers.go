package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"distfdk/internal/backproject"
	"distfdk/internal/perfmodel"
)

// leader is the rank whose track gives the per-layer times of a
// multi-rank replay: group rank 0 reduces, stores and journals, so its
// track is the path to the durable volume. Single-rank replays run on the
// launching goroutine's track.
func (r *wlRun) leader() int {
	if r.w.Ranks > 1 {
		return 0
	}
	return -1
}

// perLayer is the traced pass of one workload. It runs the CLI with and
// without its own telemetry (which also gives the reference output), the
// traced replay, the real driver once, the single-thread baseline and the
// machine and transport probes, and derives every per-layer metric. Times
// are the leader's; counts and the rates built on them cover all ranks.
func (r *wlRun) perLayer(cfg config, buildS float64) (map[string]metric, []span, error) {
	dir := filepath.Dir(r.f.out)

	// telemetry.overhead_frac: the observer's cost on this workload, from
	// alternating plain and traced CLI runs.
	var plain, traced []float64
	for i := 0; i < cfg.pairs; i++ {
		m, err := r.checkedRun(everyCPU)
		r.op(err)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, m.Wall)
		m, err = r.checkedRun(everyCPU, "-trace-out", filepath.Join(dir, "cli-trace.json"),
			"-metrics-json", filepath.Join(dir, "cli-metrics.json"))
		r.op(err)
		if err != nil {
			return nil, nil, err
		}
		traced = append(traced, m.Wall)
	}
	e2eWall := median(plain)

	replayOut := filepath.Join(dir, "replay.fbk")
	rp, err := r.replay(replayOut, filepath.Join(dir, "replay.journal"))
	if err == nil && rp.sha != r.sha {
		err = fmt.Errorf("replayed volume sha256 %.12s differs from the CLI's %.12s", rp.sha, r.sha)
	}
	r.op(err)
	if err != nil {
		return nil, nil, err
	}
	driverS, driverSHA, err := r.driver(filepath.Join(dir, "driver.fbk"), filepath.Join(dir, "driver.journal"))
	if err == nil && driverSHA != r.sha {
		err = fmt.Errorf("driver volume sha256 %.12s differs from the CLI's %.12s", driverSHA, r.sha)
	}
	r.op(err)
	if err != nil {
		return nil, nil, err
	}
	p1FilterS, p1Rows, p1KernelS, p1Updates, err := r.singleThread()
	if err != nil {
		return nil, nil, err
	}

	spans, lead := rp.spans, r.leader()
	self := selfTimes(spans)
	// Times come from the leader's track and the launching goroutine's;
	// work counts from every track.
	sec := func(name string) float64 {
		s, _ := sumByName(spans, name, -1)
		if lead != -1 {
			t, _ := sumByName(spans, name, lead)
			s += t
		}
		return s
	}
	work := func(name string) float64 { _, w := sumByName(spans, name, allRanks); return float64(w) }
	rate := func(work, seconds, scale float64) float64 {
		if seconds == 0 {
			return 0
		}
		return work / seconds / scale
	}

	// Reconciliation: what the structural spans (replay, world, the
	// leader's rank span) do not delegate to a layer call is unexplained.
	replayS := float64(spans[0].End-spans[0].Start) / 1e9
	var unexplained float64
	for _, s := range spans {
		structural := s.Name == spanReplay || s.Name == spanWorld || s.Name == spanRank
		if structural && (s.Rank == lead || s.Rank == -1) {
			unexplained += float64(self[s.ID]) / 1e9
		}
	}
	// The sequential cost of the batch loop the real driver overlaps.
	var stageS float64
	for _, name := range batchStages {
		stageS += sec(name)
	}

	loadS, filterS, uploadS, kernelS := sec("storage.LoadRows"), sec("filter.FilterRows"), sec("device.LoadRows"), sec("backproject.StreamingKernel")
	slabWriteS := sec("storage.WriteSlab") + sec("storage.Sync")
	reduceS := sec("mpi.ReduceChunked")

	var formationS, rttUs, p2pGBs float64
	if r.w.World > 1 {
		if formationS, rttUs, p2pGBs, err = netProbe(cfg.pings, cfg.bulkSends); err != nil {
			return nil, nil, err
		}
	}

	// The paper's projected-vs-measured check (§5, Figs. 13–14), with the
	// model fed by probes of this machine at the workload's worker count.
	workers := runtime.GOMAXPROCS(0)
	if r.w.Ranks > 1 {
		workers = 1
	}
	params, err := perfmodel.Measure(dir, workers)
	if err != nil {
		return nil, nil, err
	}
	plan, err := r.w.plan()
	if err != nil {
		return nil, nil, err
	}
	model, err := perfmodel.New(plan, params)
	if err != nil {
		return nil, nil, err
	}
	var pred perfmodel.StageTimes
	for c := 0; c < plan.BatchCount; c++ {
		b := model.Batch(0, c)
		pred.Load, pred.Filter, pred.BP = pred.Load+b.Load, pred.Filter+b.Filter, pred.BP+b.BP
	}

	// Roofline: FLOP per computed byte (two passes over the volume plus one
	// over the projections; cache misses are not in it), against the lower
	// of the compute and bandwidth roofs measured in this run. The probes
	// come last: the triad's arrays leave a heap large enough to slow every
	// allocation-heavy measurement that follows them.
	updates := float64(rp.ledger.VoxelUpdates)
	flopPerByte := backproject.FLOPPerUpdate * updates / float64(2*(r.dims.OutBytes-20)+r.dims.InBytes)
	_, llc := cacheSizes()
	peak := peakGFLOPS(cfg.fmaIters)
	triad := triadGBs(triadElems(llc, cfg.triadCap))
	debug.FreeOSMemory() // the next workload's pass starts from a small heap
	achieved := backproject.FLOPPerUpdate * rate(updates, kernelS, 1e9)

	m := map[string]metric{
		"forward.synth_s": {Value: sec("experiments.BuildScenario"), Unit: "s"},

		"storage.load_s":          {Value: loadS, Unit: "s"},
		"storage.load_gbs":        {Value: rate(work("storage.LoadRows"), loadS, 1e9), Unit: "GB/s"},
		"storage.slab_write_s":    {Value: slabWriteS, Unit: "s"},
		"storage.slab_write_gbs":  {Value: rate(work("storage.WriteSlab"), slabWriteS, 1e9), Unit: "GB/s"},
		"storage.journal_s":       {Value: sec("storage.Record"), Unit: "s"},
		"storage.journal_appends": {Value: work("storage.Record"), Unit: "count"},
		"storage.finish_s":        {Value: sec("volume.SaveRaw") + sec("storage.Close"), Unit: "s"},

		"filter.busy_s":        {Value: filterS, Unit: "s"},
		"filter.rows":          {Value: work("filter.FilterRows"), Unit: "count"},
		"filter.rows_per_s":    {Value: rate(work("filter.FilterRows"), filterS, 1), Unit: "1/s"},
		"filter.rows_per_s.p1": {Value: rate(float64(p1Rows), p1FilterS, 1), Unit: "1/s"},

		"device.upload_s":   {Value: uploadS, Unit: "s"},
		"device.upload_gbs": {Value: rate(float64(rp.ledger.H2DBytes), uploadS, 1e9), Unit: "GB/s"},
		"device.h2d_bytes":  {Value: float64(rp.ledger.H2DBytes), Unit: "B"},

		"backproject.busy_s":         {Value: kernelS, Unit: "s"},
		"backproject.updates":        {Value: updates, Unit: "count"},
		"backproject.gups":           {Value: rate(updates, kernelS, 1e9), Unit: "GUPS"},
		"backproject.gups.p1":        {Value: rate(float64(p1Updates), p1KernelS, 1e9), Unit: "GUPS"},
		"backproject.evaluated_frac": {Value: float64(rp.ledger.InteriorSamples+rp.ledger.BorderSamples) / updates, Unit: "ratio"},
		"backproject.flop_per_byte":  {Value: flopPerByte, Unit: "FLOP/B"},
		"backproject.roofline_frac":  {Value: achieved / min(peak, triad*flopPerByte), Unit: "ratio"},

		"core.setup_s":       {Value: sec("core.setup"), Unit: "s"},
		"core.driver_s":      {Value: driverS, Unit: "s"},
		"core.overlap_ratio": {Value: stageS / driverS, Unit: "ratio"},

		"mpi.reduce_s":     {Value: reduceS, Unit: "s"},
		"mpi.reduce_bytes": {Value: float64(rp.reduceBytes), Unit: "B"},
		"mpi.reduce_gbs":   {Value: rate(float64(rp.reduceBytes), reduceS, 1e9), Unit: "GB/s"},
		"mpi.skew_wait_s":  {Value: sec("mpi.Barrier"), Unit: "s"},

		"nettrans.formation_s": {Value: formationS, Unit: "s"},
		"nettrans.rtt_us":      {Value: rttUs, Unit: "us"},
		"nettrans.p2p_gbs":     {Value: p2pGBs, Unit: "GB/s"},

		"perfmodel.load_pred_over_meas":    {Value: pred.Load / loadS, Unit: "ratio"},
		"perfmodel.filter_pred_over_meas":  {Value: pred.Filter / filterS, Unit: "ratio"},
		"perfmodel.bp_pred_over_meas":      {Value: pred.BP / kernelS, Unit: "ratio"},
		"perfmodel.runtime_pred_over_meas": {Value: model.Runtime(0) / driverS, Unit: "ratio"},

		"telemetry.overhead_frac": {Value: median(traced)/e2eWall - 1, Unit: "ratio"},

		"machine.peak_gflops": {Value: peak, Unit: "GFLOP/s"},
		"machine.triad_gbs":   {Value: triad, Unit: "GB/s"},

		"trace.replay_s":        {Value: replayS, Unit: "s"},
		"trace.coverage_frac":   {Value: 1 - unexplained/replayS, Unit: "ratio"},
		"trace.replay_over_e2e": {Value: replayS / e2eWall, Unit: "ratio"},
		"bench.build_s":         {Value: buildS, Unit: "s"},
	}
	return m, spans, nil
}

// batchStages are the spans of the per-batch loop: what the drivers run
// between their start and the last stored slab.
var batchStages = []string{
	"storage.LoadRows", "filter.FilterRows", "device.LoadRows", "backproject.StreamingKernel",
	"mpi.Barrier", "mpi.ReduceChunked",
	"core.WriteSlab", "storage.WriteSlab", "storage.Sync", "storage.Record",
}
