package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/experiments"
	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/telemetry"
)

// RunMetrics is the harvest of one replay.
type RunMetrics struct {
	Run     int    `json:"run"`
	Outcome string `json:"outcome"`
	// Volume is the sha256 of the reconstructed volume's bytes; empty
	// unless the run succeeded.
	Volume string `json:"volume,omitempty"`
	// Counts holds the run's event counts keyed by catalog name.
	Counts map[string]int64 `json:"counts"`
	Err    string           `json:"error,omitempty"`
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

// replay executes the scenario once: with the scenario's fault schedule
// compiled for run runIdx when inject is set, fault-free on the same world
// (the reference) otherwise.
func replay(cfg *Config, w *world, runIdx int, inject bool) RunMetrics {
	m := RunMetrics{Run: runIdx}

	run := telemetry.NewRun(w.plan.Ranks())
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

	sup := cfg.superviseOptions(opts)
	var rep *core.SuperviseReport
	if cfg.World.SocketTransport() {
		rep, err = runSocketWorld(cfg, w, sup)
	} else {
		rep, err = core.Supervise(sup)
	}

	m.Outcome = classify(err)
	if err != nil {
		m.Err = err.Error()
	} else {
		h := sha256.New()
		_ = sink.V.WriteRaw(h) // a hash.Hash never fails a Write
		m.Volume = hex.EncodeToString(h.Sum(nil))
	}
	snaps := run.Snapshots()
	m.Counts = map[string]int64{
		"retries":       telemetry.CounterTotal(snaps, "fault.retries"),
		"backoff_total": telemetry.CounterTotal(snaps, "fault.backoff_ns"),
		"severs":        telemetry.CounterTotal(snaps, "transport.severs"),
		"reconnects":    telemetry.CounterTotal(snaps, "transport.reconnects"),
		"retransmits":   telemetry.CounterTotal(snaps, "transport.retransmits"),
		"crc_errors":    telemetry.CounterTotal(snaps, "transport.crc_errors"),
	}
	if in != nil {
		m.Counts["faults_injected"] = int64(in.Fired())
	}
	if rep != nil {
		m.Counts["restarts"] = int64(rep.Restarts)
		m.Counts["lost_ranks"] = int64(rep.TotalLost)
	}
	return m
}

// superviseOptions wraps a replay's world in its supervision. A supervised
// scenario (a supervise: section or a kill schedule) gets its own budget —
// core.DefaultMaxRestarts when only kills imply it — and a fresh in-memory
// journal that every attempt, on every process, resumes from. Any other
// scenario's budget is 0: one attempt, whose failure (rank-lost included)
// is the run's outcome.
func (cfg *Config) superviseOptions(opts core.ClusterOptions) core.SuperviseOptions {
	sup := core.SuperviseOptions{Cluster: opts}
	if !cfg.Supervised() {
		return sup
	}
	sup.MaxRestarts = core.DefaultMaxRestarts
	if cfg.Supervise != nil {
		sup.MaxRestarts = cfg.Supervise.MaxRestarts
		sup.RestartBackoff = cfg.Supervise.RestartBackoff
	}
	journal := newMemJournal()
	sup.OpenCheckpoint = func(string) (core.CheckpointLog, error) { return journal, nil }
	return sup
}

// runSocketWorld replays one run over an in-process socket fleet: one
// nettrans.Node per declared process wired through real kernel sockets,
// the coordinator (proc 0) owning the volume sink and the supervise
// telemetry, followers re-running the same batch loop and the same
// shrink decisions against a discard sink. The shared fault injector
// doubles as the wire chaos schedule (nettrans fires frame-drop /
// frame-corrupt / frame-dup / frame-delay / sever rules below the frame
// codec) and as the in-pipeline schedule (load/store rules, kills).
func runSocketWorld(cfg *Config, w *world, sup core.SuperviseOptions) (*core.SuperviseReport, error) {
	ncfg := nettrans.Config{
		// CI-scale liveness: fast heartbeats so an injected death is
		// detected well inside the collective deadline.
		Heartbeat:  25 * time.Millisecond,
		DeathAfter: 2 * time.Second,
		Injector:   sup.Cluster.FaultInjector,
		// Transport counters land in the run's shared registry, so the
		// harvest reads them from the same snapshots as everything else.
		Telemetry: sup.Cluster.Telemetry.Shared(),
	}
	fl, err := nettrans.NewFleet(cfg.World.Procs, ncfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: socket fleet: %w", err)
	}
	defer fl.Close()

	errs := make([]error, len(fl.Nodes))
	reps := make([]*core.SuperviseReport, len(fl.Nodes))
	var wg sync.WaitGroup
	for i, n := range fl.Nodes {
		s := sup
		s.Cluster.Launch = n.Launcher(w.plan.NRanksPerGroup)
		s.Follower = i != 0
		if s.Follower {
			s.Cluster.Output = core.DiscardSink{}
		}
		wg.Add(1)
		go func(i int, s core.SuperviseOptions) {
			defer wg.Done()
			reps[i], errs[i] = core.Supervise(s)
		}(i, s)
	}
	wg.Wait()
	// The coordinator's verdict is the run's verdict (its error is typed
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

// Progress receives replay milestones (nil discards them).
type Progress func(format string, args ...any)

// Execute replays one scenario: the fault-free reference run, then
// cfg.Runs injected runs, and evaluates the verdicts on every one of them.
// Only infrastructure failures (the world itself cannot be built) return
// an error; replay failures land in the result's outcome gate.
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
	}
	progress("%s: fault-free reference run", cfg.Name)
	res.Reference = replay(cfg, w, 0, false)
	for i := 0; i < cfg.Runs; i++ {
		progress("%s: injected run %d/%d", cfg.Name, i+1, cfg.Runs)
		res.Injected = append(res.Injected, replay(cfg, w, i, true))
	}
	evaluate(cfg, res)
	return res, nil
}

// evaluate renders the verdicts, each over every injected run — a count
// that flickers in one run of three is a breach, not an outlier. Two are
// implicit. outcome: the reference must succeed and every injected run
// must land on cfg.Expect (a run that fails differently than declared
// breaches even if every number is green). volume: when that expectation
// is success, every injected run must reconstruct the reference's bytes —
// a fault absorbed into a different volume is the failure this wall
// exists for. Then the scenario's own count gates.
func evaluate(cfg *Config, res *ScenarioResult) {
	ref := res.Reference
	outcome := GateResult{Metric: "outcome", Pass: true,
		Detail: fmt.Sprintf("reference %s, injected %s", OutcomeSuccess, cfg.Expect)}
	if ref.Outcome != OutcomeSuccess {
		outcome.Pass = false
		outcome.Detail = fmt.Sprintf("reference run: %s (%s)", ref.Outcome, ref.Err)
	}
	for _, r := range res.Injected {
		if outcome.Pass && r.Outcome != cfg.Expect {
			outcome.Pass = false
			outcome.Detail = fmt.Sprintf("injected run %d: %s, want %s (%s)", r.Run, r.Outcome, cfg.Expect, r.Err)
		}
	}
	res.Gates = append(res.Gates, outcome)

	if cfg.Expect == OutcomeSuccess {
		vol := GateResult{Metric: "volume", Pass: ref.Volume != "",
			Detail: fmt.Sprintf("sha256 %s, reference and %d injected runs", ref.Volume, len(res.Injected))}
		if !vol.Pass {
			vol.Detail = "the reference run produced no volume"
		}
		for _, r := range res.Injected {
			if vol.Pass && r.Volume != ref.Volume {
				vol.Pass = false
				vol.Detail = fmt.Sprintf("injected run %d: sha256 %q, reference %s", r.Run, r.Volume, ref.Volume)
			}
		}
		res.Gates = append(res.Gates, vol)
	}

	for _, g := range cfg.Gates {
		gr := GateResult{Metric: g.Metric, Min: g.Min, Max: g.Max, Pass: true}
		for _, r := range res.Injected {
			v := r.Counts[g.Metric]
			gr.Values = append(gr.Values, v)
			switch {
			case !gr.Pass: // the first breaching run is the one named
			case g.Min != nil && v < *g.Min:
				gr.Pass = false
				gr.Detail = fmt.Sprintf("injected run %d: %d below min %d", r.Run, v, *g.Min)
			case g.Max != nil && v > *g.Max:
				gr.Pass = false
				gr.Detail = fmt.Sprintf("injected run %d: %d above max %d", r.Run, v, *g.Max)
			}
		}
		res.Gates = append(res.Gates, gr)
	}
	res.Pass = true
	for _, g := range res.Gates {
		res.Pass = res.Pass && g.Pass
	}
}
