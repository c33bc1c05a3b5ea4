package scenario

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/experiments"
	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/telemetry"
)

// stageNames are the per-batch pipeline spans; a maximal run of
// consecutive stage spans sharing one batch tag is one batch execution
// (consecutive, not merely same-tag: a supervised restart re-runs batch
// indices, and grouping by tag alone would fuse the two executions into
// one giant phantom latency).
var stageNames = map[string]bool{
	"load": true, "filter": true, "upload": true,
	"backproject": true, "reduce": true, "store": true,
}

// RunMetrics is the harvest of one replay.
type RunMetrics struct {
	Run     int    `json:"run"`
	Outcome string `json:"outcome"`
	// Wall is the replay's wall-clock time in nanoseconds.
	Wall int64 `json:"wall_ns"`
	// Batches counts executed (not skipped) batches across all ranks.
	Batches int64 `json:"batches"`
	// BatchesPerSec is Batches over Wall.
	BatchesPerSec float64 `json:"batches_per_sec"`
	// P50/P95BatchLatency are quantiles of per-batch wall time (ns).
	P50BatchLatency float64 `json:"p50_batch_latency_ns"`
	P95BatchLatency float64 `json:"p95_batch_latency_ns"`
	// P95ReduceLatency is the p95 reduce-chunk latency (ns).
	P95ReduceLatency float64 `json:"p95_reduce_latency_ns"`
	// Recovery is the worst failed-attempt-end → first-post-restart
	// back-projection interval (ns); 0 when nothing restarted.
	Recovery float64 `json:"recovery_ns"`
	Retries  int64   `json:"retries"`
	// Backoff is the total retry backoff slept (ns).
	Backoff int64 `json:"backoff_ns"`
	// Faults counts schedule firings (errors and delays).
	Faults   int64 `json:"faults"`
	Restarts int64 `json:"restarts"`
	Lost     int64 `json:"lost_ranks"`
	// CritCommFraction / CritWaitFraction attribute the replay's critical
	// path (telemetry.ComputeCriticalPath): the share of its makespan
	// spent in communication and idle waits.
	CritCommFraction float64 `json:"critical_path_comm_fraction"`
	CritWaitFraction float64 `json:"critical_path_wait_fraction"`
	// Reconnects/Retransmits/CrcErrors are the socket transport's recovery
	// counters (zero on an in-process world): connection re-establishments
	// (both link ends count each sever), frames re-sent through replay,
	// and frames rejected by the CRC check.
	Reconnects  int64  `json:"reconnects,omitempty"`
	Retransmits int64  `json:"retransmits,omitempty"`
	CrcErrors   int64  `json:"crc_errors,omitempty"`
	Err         string `json:"error,omitempty"`
}

// world is the reusable part of a scenario replay: the synthetic dataset
// (projections included — the expensive part) and the plan. Both are
// read-only during runs, so every replay shares them.
type world struct {
	env  *experiments.Scenario
	plan *core.Plan
}

func buildWorld(cfg *Config) (*world, error) {
	env, err := experiments.BuildScenario(cfg.World.Dataset, cfg.World.Div, cfg.World.N, runtime.NumCPU())
	if err != nil {
		return nil, fmt.Errorf("%s: world: %w", cfg.Path, err)
	}
	plan, err := core.NewPlan(env.Sys, cfg.World.Groups, cfg.World.Ranks, cfg.World.Batches)
	if err != nil {
		return nil, fmt.Errorf("%s: world: %w", cfg.Path, err)
	}
	return &world{env: env, plan: plan}, nil
}

// memJournal is an in-memory CheckpointLog so supervised replays resume
// from the kill point without touching the filesystem.
type memJournal struct {
	mu   sync.Mutex
	done map[int]bool
}

func newMemJournal() *memJournal { return &memJournal{done: map[int]bool{}} }

func (j *memJournal) Done(z0 int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[z0]
}

func (j *memJournal) Record(z0, batch int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[z0] = true
	return nil
}

// replay executes the scenario once. inject selects the arm: the injected
// arm compiles the scenario's fault schedule, the baseline arm runs
// fault-free on the same world. withTelemetry=false runs dark (for the
// overhead_ratio metric) and harvests only wall time and outcome.
func replay(cfg *Config, w *world, runIdx int, inject, withTelemetry bool) RunMetrics {
	m := RunMetrics{Run: runIdx}

	var run *telemetry.Run
	if withTelemetry {
		run = telemetry.NewRun(w.plan.Ranks())
	}
	var in *fault.Injector
	if inject {
		in = cfg.Injector(runIdx)
	}
	retry := cfg.RetryPolicy()
	if retry == nil && inject && needsRetry(cfg) {
		// Transient error rules without a retry section would fail every
		// injected run on the first hit; default to the stock policy so
		// the scenario asserts absorption unless it opts out by expecting
		// a non-success outcome.
		retry = &fault.RetryPolicy{Seed: cfg.Seed}
	}
	deadline := cfg.Deadline
	if deadline == 0 {
		switch {
		case cfg.World.SocketTransport():
			// Socket worlds always get a deadline, kills or not: a wire
			// fault that escapes the link's recovery must surface typed,
			// not hang the gate.
			deadline = 20 * time.Second
		case cfg.Supervised():
			deadline = 10 * time.Second
		}
	}
	sink, err := core.NewVolumeSink(w.env.Sys)
	if err != nil {
		m.Outcome, m.Err = OutcomeError, err.Error()
		return m
	}
	opts := core.ClusterOptions{
		Plan:               w.plan,
		Source:             w.env.Source,
		Output:             sink,
		FaultInjector:      in,
		Retry:              retry,
		CollectiveDeadline: deadline,
		Telemetry:          run,
	}

	start := time.Now()
	var rep *core.SuperviseReport
	switch {
	case cfg.World.SocketTransport():
		rep, err = runSocketArm(cfg, w, opts, run)
	case cfg.Supervised():
		opts.Checkpoint = newMemJournal()
		sup := core.SuperviseOptions{Cluster: opts}
		if cfg.Supervise != nil {
			sup.MaxRestarts = cfg.Supervise.MaxRestarts
			sup.RestartBackoff = cfg.Supervise.RestartBackoff
		}
		rep, err = core.Supervise(sup)
	default:
		_, err = core.RunDistributed(opts)
	}
	m.Wall = int64(time.Since(start))

	m.Outcome = classify(err)
	if err != nil {
		m.Err = err.Error()
	}
	if in != nil {
		m.Faults = int64(in.Fired())
	}
	if rep != nil {
		m.Restarts = int64(rep.Restarts)
		m.Lost = int64(rep.TotalLost)
	}
	if run == nil {
		return m
	}

	snaps := run.Snapshots()
	m.Batches = telemetry.CounterTotal(snaps, "core.batches")
	if m.Wall > 0 {
		m.BatchesPerSec = float64(m.Batches) / (float64(m.Wall) / float64(time.Second))
	}
	m.Retries = telemetry.CounterTotal(snaps, "fault.retries")
	m.Backoff = telemetry.CounterTotal(snaps, "fault.backoff_ns")

	lat := batchLatencies(snaps)
	m.P50BatchLatency = quantileOf(lat, 0.5)
	m.P95BatchLatency = quantileOf(lat, 0.95)
	if h, ok := telemetry.MergeHistograms(snaps, "mpi.reduce_chunk_ns"); ok {
		m.P95ReduceLatency = h.Quantile(0.95)
	}
	m.Recovery = recoveryTime(snaps)
	if cp := telemetry.ComputeCriticalPath(snaps); cp != nil {
		m.CritCommFraction = cp.CommFraction
		m.CritWaitFraction = cp.WaitFraction
	}
	m.Reconnects = telemetry.CounterTotal(snaps, "transport.reconnects")
	m.Retransmits = telemetry.CounterTotal(snaps, "transport.retransmits")
	m.CrcErrors = telemetry.CounterTotal(snaps, "transport.crc_errors")
	return m
}

// runSocketArm replays one arm over an in-process socket fleet: one
// nettrans.Node per declared process wired through real kernel sockets,
// the coordinator (proc 0) owning the volume sink and the supervise
// telemetry, followers re-running the same batch loop and the same
// shrink decisions against a discard sink. The shared fault injector
// doubles as the wire chaos schedule (nettrans fires frame-drop /
// frame-corrupt / frame-dup / frame-delay / sever rules below the frame
// codec) and as the in-pipeline schedule (load/store rules, kills).
func runSocketArm(cfg *Config, w *world, opts core.ClusterOptions, run *telemetry.Run) (*core.SuperviseReport, error) {
	ncfg := nettrans.Config{
		Network: cfg.World.Transport,
		// CI-scale liveness: fast heartbeats so an injected death is
		// detected well inside the collective deadline.
		Heartbeat:  25 * time.Millisecond,
		DeathAfter: 2 * time.Second,
		Injector:   opts.FaultInjector,
	}
	if run != nil {
		// Transport counters land in the run's shared registry, so the
		// harvest reads them from the same snapshots as everything else.
		ncfg.Telemetry = run.Shared()
	}
	if cfg.World.Transport == "unix" {
		dir, err := os.MkdirTemp("", "distfdk-scenario-*")
		if err != nil {
			return nil, fmt.Errorf("scenario: unix socket dir: %w", err)
		}
		defer os.RemoveAll(dir)
		ncfg.Addr = filepath.Join(dir, "hub.sock")
	}
	fl, err := nettrans.NewFleet(cfg.World.Procs, ncfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: socket fleet: %w", err)
	}
	defer fl.Close()

	journal := newMemJournal()
	errs := make([]error, len(fl.Nodes))
	reps := make([]*core.SuperviseReport, len(fl.Nodes))
	var wg sync.WaitGroup
	for i, n := range fl.Nodes {
		o := opts
		o.Launch = n.Launcher(w.plan.NRanksPerGroup)
		if i != 0 {
			o.Output = core.DiscardSink{}
		}
		wg.Add(1)
		go func(i int, o core.ClusterOptions) {
			defer wg.Done()
			if cfg.Supervised() {
				o.Checkpoint = journal
				sup := core.SuperviseOptions{Cluster: o, Follower: i != 0}
				if cfg.Supervise != nil {
					sup.MaxRestarts = cfg.Supervise.MaxRestarts
					sup.RestartBackoff = cfg.Supervise.RestartBackoff
				}
				reps[i], errs[i] = core.Supervise(sup)
			} else {
				_, errs[i] = core.RunDistributed(o)
			}
		}(i, o)
	}
	wg.Wait()
	// The coordinator's verdict is the arm's verdict (its error is typed
	// for classify). A follower failing while the coordinator succeeded
	// means the fleet's views diverged — surface it, never mask it.
	if errs[0] != nil {
		return reps[0], errs[0]
	}
	for i, e := range errs[1:] {
		if e != nil {
			return reps[0], fmt.Errorf("scenario: follower proc %d diverged from coordinator: %w", i+1, e)
		}
	}
	return reps[0], nil
}

// needsRetry reports whether the schedule contains transient error rules
// (delay-free): the ones a RetryPolicy exists to absorb. Wire-level rules
// don't count — the link's CRC/sequence/replay machinery absorbs those
// below the pipeline, no retry policy involved.
func needsRetry(cfg *Config) bool {
	for _, f := range cfg.Faults {
		if !isWireOp(f.Op) && f.Class != "permanent" && f.Delay == 0 {
			return true
		}
	}
	return false
}

// classify maps a replay error onto the outcome vocabulary.
func classify(err error) string {
	switch {
	case err == nil:
		return OutcomeSuccess
	case errors.Is(err, core.ErrRestartBudget):
		return OutcomeRestartBudget
	case errors.Is(err, core.ErrWorldTooSmall):
		return OutcomeWorldTooSmall
	case errors.Is(err, mpi.ErrRankLost):
		return OutcomeRankLost
	default:
		return OutcomeError
	}
}

// batchLatencies extracts per-batch wall times (ns) from every rank's
// span stream: each maximal run of consecutive stage spans with one batch
// tag is a batch execution, its latency the envelope max(End)-min(Start).
func batchLatencies(snaps []telemetry.Snapshot) []float64 {
	var out []float64
	for _, s := range snaps {
		if s.Rank == telemetry.SharedRank {
			continue
		}
		curBatch := -1
		var start, end time.Duration
		flush := func() {
			if curBatch >= 0 && end > start {
				out = append(out, float64(end-start))
			}
			curBatch = -1
		}
		for _, sp := range s.Spans {
			if !stageNames[sp.Name] {
				flush()
				continue
			}
			if sp.Batch != curBatch {
				flush()
				curBatch, start, end = sp.Batch, sp.Start, sp.End
				continue
			}
			if sp.Start < start {
				start = sp.Start
			}
			if sp.End > end {
				end = sp.End
			}
		}
		flush()
	}
	sort.Float64s(out)
	return out
}

// recoveryTime measures shrink-and-resume reaction: for every failed
// supervise attempt, the gap from the attempt's end to the earliest
// back-projection that starts after it (the relaunched world doing real
// work again). The worst gap across restarts is the scenario's recovery
// time; 0 when nothing restarted.
func recoveryTime(snaps []telemetry.Snapshot) float64 {
	var attempts []telemetry.Span
	for _, s := range snaps {
		if s.Rank != telemetry.SharedRank {
			continue
		}
		for _, sp := range s.Spans {
			if sp.Name == "supervise.attempt" {
				attempts = append(attempts, sp)
			}
		}
	}
	if len(attempts) < 2 {
		return 0
	}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].Batch < attempts[j].Batch })
	worst := 0.0
	for _, a := range attempts[:len(attempts)-1] {
		first := time.Duration(math.MaxInt64)
		for _, s := range snaps {
			if s.Rank == telemetry.SharedRank {
				continue
			}
			for _, sp := range s.Spans {
				if sp.Name == "backproject" && sp.Start >= a.End && sp.End < first {
					first = sp.End
				}
			}
		}
		if first == math.MaxInt64 {
			continue // attempt never reached a post-restart back-projection
		}
		if gap := float64(first - a.End); gap > worst {
			worst = gap
		}
	}
	return worst
}

// quantileOf interpolates quantile q over sorted (ascending) values.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// RobustMedian aggregates run samples: Tukey-fence outliers (outside
// [Q1-1.5·IQR, Q3+1.5·IQR]) are dropped, then the median of the
// survivors is returned. With ≤ 2 samples nothing is dropped. This is
// what makes gate verdicts stable run-to-run: one scheduler hiccup in N
// replays shifts an IQR-trimmed median far less than a mean.
func RobustMedian(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) > 2 {
		q1 := quantileOf(s, 0.25)
		q3 := quantileOf(s, 0.75)
		iqr := q3 - q1
		lo, hi := q1-1.5*iqr, q3+1.5*iqr
		kept := s[:0]
		for _, v := range s {
			if v >= lo && v <= hi {
				kept = append(kept, v)
			}
		}
		s = kept
	}
	return quantileOf(s, 0.5)
}

// Progress receives replay milestones (nil discards them).
type Progress func(format string, args ...any)

// Execute replays one scenario: cfg.Runs baseline runs, cfg.Runs injected
// runs (plus cfg.Runs dark runs when an overhead_ratio gate asks for
// them), aggregates robust metrics over the arms, and evaluates the
// gates. Only infrastructure failures (the world itself cannot be built)
// return an error; replay failures land in the result's outcome gate.
func Execute(cfg *Config, progress Progress) (*ScenarioResult, error) {
	if progress == nil {
		progress = func(string, ...any) {}
	}
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Name:        cfg.Name,
		Description: cfg.Description,
		Seed:        cfg.Seed,
		Runs:        cfg.Runs,
		Expect:      cfg.Expect,
		Metrics:     map[string]float64{},
	}
	for i := 0; i < cfg.Runs; i++ {
		progress("%s: baseline run %d/%d", cfg.Name, i+1, cfg.Runs)
		res.Baseline = append(res.Baseline, replay(cfg, w, i, false, true))
	}
	for i := 0; i < cfg.Runs; i++ {
		progress("%s: injected run %d/%d", cfg.Name, i+1, cfg.Runs)
		res.Injected = append(res.Injected, replay(cfg, w, i, true, true))
	}
	if gatesMetric(cfg, "overhead_ratio") {
		for i := 0; i < cfg.Runs; i++ {
			progress("%s: dark (telemetry-off) run %d/%d", cfg.Name, i+1, cfg.Runs)
			res.Dark = append(res.Dark, replay(cfg, w, i, false, false))
		}
	}
	aggregate(cfg, res)
	evaluate(cfg, res)
	return res, nil
}

func gatesMetric(cfg *Config, name string) bool {
	for _, g := range cfg.Gates {
		if g.Metric == name {
			return true
		}
	}
	return false
}

// pick collects one field over an arm's runs.
func pick(runs []RunMetrics, f func(RunMetrics) float64) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, f(r))
	}
	return out
}

// aggregate reduces both arms' runs into the scenario's metric map.
func aggregate(cfg *Config, res *ScenarioResult) {
	inj, base := res.Injected, res.Baseline
	med := func(runs []RunMetrics, f func(RunMetrics) float64) float64 {
		return RobustMedian(pick(runs, f))
	}
	m := res.Metrics
	m["batches_per_sec"] = med(inj, func(r RunMetrics) float64 { return r.BatchesPerSec })
	m["baseline_batches_per_sec"] = med(base, func(r RunMetrics) float64 { return r.BatchesPerSec })
	if m["baseline_batches_per_sec"] > 0 {
		m["throughput_ratio"] = m["batches_per_sec"] / m["baseline_batches_per_sec"]
	}
	m["p50_batch_latency"] = med(inj, func(r RunMetrics) float64 { return r.P50BatchLatency })
	m["p95_batch_latency"] = med(inj, func(r RunMetrics) float64 { return r.P95BatchLatency })
	m["p95_reduce_latency"] = med(inj, func(r RunMetrics) float64 { return r.P95ReduceLatency })
	m["recovery_time"] = med(inj, func(r RunMetrics) float64 { return r.Recovery })
	m["wall_time"] = med(inj, func(r RunMetrics) float64 { return float64(r.Wall) })
	m["retries"] = med(inj, func(r RunMetrics) float64 { return float64(r.Retries) })
	m["backoff_total"] = med(inj, func(r RunMetrics) float64 { return float64(r.Backoff) })
	m["faults_injected"] = med(inj, func(r RunMetrics) float64 { return float64(r.Faults) })
	m["restarts"] = med(inj, func(r RunMetrics) float64 { return float64(r.Restarts) })
	m["lost_ranks"] = med(inj, func(r RunMetrics) float64 { return float64(r.Lost) })
	m["critical_path_comm_fraction"] = med(inj, func(r RunMetrics) float64 { return r.CritCommFraction })
	m["critical_path_wait_fraction"] = med(inj, func(r RunMetrics) float64 { return r.CritWaitFraction })
	m["reconnects"] = med(inj, func(r RunMetrics) float64 { return float64(r.Reconnects) })
	m["retransmits"] = med(inj, func(r RunMetrics) float64 { return float64(r.Retransmits) })
	m["crc_errors"] = med(inj, func(r RunMetrics) float64 { return float64(r.CrcErrors) })
	if len(res.Dark) > 0 {
		darkWall := RobustMedian(pick(res.Dark, func(r RunMetrics) float64 { return float64(r.Wall) }))
		baseWall := RobustMedian(pick(base, func(r RunMetrics) float64 { return float64(r.Wall) }))
		if darkWall > 0 {
			m["overhead_ratio"] = baseWall / darkWall
		}
	}
}

// evaluate renders the gate verdicts, starting with the implicit outcome
// gate: every baseline run must succeed, every injected run must land on
// cfg.Expect. Predictable degradation is the whole point — a run that
// fails differently than declared breaches even if every number is green.
func evaluate(cfg *Config, res *ScenarioResult) {
	res.Pass = true
	outcome := GateResult{Metric: "outcome", Pass: true,
		Detail: fmt.Sprintf("baseline %s, injected %s", OutcomeSuccess, cfg.Expect)}
	for _, r := range res.Baseline {
		if r.Outcome != OutcomeSuccess {
			outcome.Pass = false
			outcome.Detail = fmt.Sprintf("baseline run %d: %s (%s)", r.Run, r.Outcome, r.Err)
			break
		}
	}
	for _, r := range res.Injected {
		if !outcome.Pass {
			break
		}
		if r.Outcome != cfg.Expect {
			outcome.Pass = false
			outcome.Detail = fmt.Sprintf("injected run %d: %s, want %s (%s)", r.Run, r.Outcome, cfg.Expect, r.Err)
		}
	}
	for _, r := range res.Dark {
		if !outcome.Pass {
			break
		}
		if r.Outcome != OutcomeSuccess {
			outcome.Pass = false
			outcome.Detail = fmt.Sprintf("dark run %d: %s (%s)", r.Run, r.Outcome, r.Err)
		}
	}
	res.Gates = append(res.Gates, outcome)
	res.Pass = res.Pass && outcome.Pass

	for _, g := range cfg.Gates {
		v, ok := res.Metrics[g.Metric]
		gr := GateResult{Metric: g.Metric, Value: v, Min: g.Min, Max: g.Max, Pass: true}
		switch {
		case !ok:
			gr.Pass = false
			gr.Detail = "metric was not produced by this scenario"
		case g.Min != nil && v < *g.Min:
			gr.Pass = false
			gr.Detail = fmt.Sprintf("%g below min %g", v, *g.Min)
		case g.Max != nil && v > *g.Max:
			gr.Pass = false
			gr.Detail = fmt.Sprintf("%g above max %g", v, *g.Max)
		}
		res.Gates = append(res.Gates, gr)
		res.Pass = res.Pass && gr.Pass
	}
}
