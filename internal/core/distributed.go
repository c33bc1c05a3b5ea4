package core

import (
	"fmt"
	"time"

	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/filter"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
)

// ClusterOptions configures a distributed reconstruction across Ng groups
// of Nr ranks (Figure 6). Every rank runs the rank program (engine.go) over
// its projection window; the Nr partial slabs of each batch meet in a
// segmented reduction on the group communicator and the group leader stores
// the result.
type ClusterOptions struct {
	Plan *Plan
	// Source must be safe for concurrent partial loads (MemorySource and
	// storage.FileSource both are).
	Source projection.Source
	// Window selects the ramp apodisation.
	Window filter.Window
	// DeviceMemBytes caps each rank's simulated device memory (0 =
	// unlimited).
	DeviceMemBytes int64
	// WorkersPerRank is each rank's device width, the parallelism of its
	// filter and its kernel; defaults to 1 since ranks already run
	// concurrently.
	WorkersPerRank int
	// Hierarchical enables the node-leader reduction of Section 4.4.2
	// with RanksPerNode ranks per node. The default is the slab reduction
	// chunk-pipelined through the tree one XY plane (NX·NY elements) at a
	// time, which overlaps tree latency with accumulation plane by plane.
	// The hierarchical path assembles the same bytes only when RanksPerNode
	// is a power of two dividing the group size (see
	// mpi.HierarchicalReduce).
	Hierarchical bool
	RanksPerNode int
	// Output receives reduced slabs from group leaders (required).
	Output SlabSink
	// Retry, when set, retries transient load and store failures with
	// capped exponential backoff on the failing rank; permanent failures
	// abort the rank (and with it the world). Nil means a single attempt.
	Retry *fault.RetryPolicy
	// FaultInjector, when set, deterministically injects faults into every
	// rank's load, store, send and receive paths for chaos testing. Nil
	// costs nothing on the happy path.
	FaultInjector *fault.Injector
	// CollectiveDeadline bounds how long a rank blocks in any
	// point-to-point or collective operation before a lost peer surfaces
	// as a typed mpi.ErrRankLost instead of a hang. Zero waits forever
	// (world teardown still wakes blocked ranks when a peer errors out).
	CollectiveDeadline time.Duration
	// Checkpoint, when set, journals each output slab (keyed by its first
	// slice z0) after the group leader has durably stored it, and skips
	// slabs the log already records — pass a reopened journal to resume a
	// killed run, even one replanned onto a smaller world (see Supervise).
	// The resumed volume is bit-identical to an uninterrupted one.
	Checkpoint CheckpointLog
	// Launch runs the world: n ranks of fn. Nil = all ranks local
	// (mpi.RunWith, the in-process transport). The multi-process socket
	// world wires nettrans.Node.Launcher here — the same launcher
	// (mpi.RunTransport) over another transport, so the batch loop runs
	// unchanged wherever the ranks live. A launcher must honour the mpi
	// world contract: run fn once per rank it hosts (remote ranks run in
	// their own processes), tear down on error with RankLostError
	// attribution, and return the joined rank errors.
	Launch func(n int, opt mpi.Options, fn func(c *mpi.Comm) error) error
	// Telemetry, when set, collects the run's metrics and spans: each rank
	// reports its stage spans, ring traffic, collective latency and retry
	// activity into Telemetry.Rank(rank), and the final snapshots land in
	// ClusterReport.Telemetry for export (Chrome trace, metrics JSON,
	// skew summary). Build with telemetry.NewRun(plan.Ranks()). Nil keeps
	// every instrumented path at a single pointer check.
	Telemetry *telemetry.Run
}

// ClusterReport aggregates per-rank observations of a distributed run.
type ClusterReport struct {
	Elapsed time.Duration
	// Ledgers holds each world rank's device ledger.
	Ledgers []device.Ledger
	// WorldStats and GroupStats hold each rank's traffic on the world
	// and group communicators.
	WorldStats []mpi.Stats
	GroupStats []mpi.Stats
	// Completed marks ranks whose full batch loop finished. When
	// RunDistributed returns an error the partial report still carries what
	// every local rank had counted when it left — the culprit's and the
	// torn-down survivors' alike — and Completed tells them apart from
	// ranks that finished.
	Completed []bool
	// BatchesDone counts the batches each rank executed; BatchesSkipped
	// counts the checkpointed batches each rank skipped on resume. The two
	// are disjoint. They are this run's share of the per-rank `core.batches`
	// and `core.batches_skipped` telemetry counters, which keep counting
	// over the attempts of a supervised run.
	BatchesDone    []int
	BatchesSkipped []int
	// Restarts and LostRanks are filled in by Supervise when the run was
	// the final attempt of a supervised shrink-and-resume: how many times
	// the world was relaunched, and which world ranks (numbered in the
	// attempt that lost them) were declared dead along the way. Zero and
	// empty for an unsupervised run.
	Restarts  int
	LostRanks []int
	// Telemetry holds each registry's final snapshot (ranks in order, the
	// shared registry last) when ClusterOptions.Telemetry was set — the
	// input to telemetry.WriteChromeTrace / WriteMetricsJSON and the skew
	// section of String(). Populated even when the run returns an error,
	// so a chaos run's partial trace is still exportable.
	Telemetry []telemetry.Snapshot
}

// TotalReduceBytes sums the bytes every rank sent during segmented
// reductions — the paper's headline communication metric.
func (r *ClusterReport) TotalReduceBytes() int64 {
	var total int64
	for _, s := range r.GroupStats {
		total += s.BytesSent
	}
	return total
}

// TotalH2DBytes sums host→device traffic across ranks.
func (r *ClusterReport) TotalH2DBytes() int64 {
	var total int64
	for _, l := range r.Ledgers {
		total += l.H2DBytes
	}
	return total
}

// Arithmetic names the back-projection arithmetic the ranks' kernel
// launches dispatched to (see device.Ledger.Arithmetic).
func (r *ClusterReport) Arithmetic() string {
	var sum device.Ledger
	for _, l := range r.Ledgers {
		for a, n := range l.Dispatched {
			sum.Dispatched[a] += n
		}
	}
	return sum.Arithmetic()
}

// RunDistributed executes the full distributed FBP framework in-process:
// MPI ranks as goroutines, grouped by Split (Section 4.4.1), each batch
// ending in one segmented Reduce (Section 4.4.2) instead of the global
// collectives of prior frameworks.
//
// On failure the world tears down deterministically — a lost rank surfaces
// to its peers as a typed mpi.ErrRankLost within CollectiveDeadline rather
// than a hang — and the partial ClusterReport is returned alongside the
// error with the surviving ranks' observations filled in.
func RunDistributed(opts ClusterOptions) (*ClusterReport, error) {
	p := opts.Plan
	if p == nil || opts.Source == nil || opts.Output == nil {
		return nil, fmt.Errorf("core: Plan, Source and Output are required")
	}
	if opts.Hierarchical && opts.RanksPerNode <= 0 {
		return nil, fmt.Errorf("core: hierarchical reduction needs RanksPerNode")
	}
	workers := opts.WorkersPerRank
	if workers <= 0 {
		workers = 1
	}
	report := &ClusterReport{
		Ledgers:        make([]device.Ledger, p.Ranks()),
		WorldStats:     make([]mpi.Stats, p.Ranks()),
		GroupStats:     make([]mpi.Stats, p.Ranks()),
		Completed:      make([]bool, p.Ranks()),
		BatchesDone:    make([]int, p.Ranks()),
		BatchesSkipped: make([]int, p.Ranks()),
	}
	// The assignment below must stay behind the pointer check: a typed-nil
	// interface would defeat the runtime's nil fast path.
	var icept mpi.Interceptor
	if opts.FaultInjector != nil {
		icept = opts.FaultInjector
	}
	launch := opts.Launch
	if launch == nil {
		launch = mpi.RunWith
	}
	start := time.Now()
	err := launch(p.Ranks(), mpi.Options{
		Deadline:    opts.CollectiveDeadline,
		Interceptor: icept,
		Telemetry:   opts.Telemetry,
	}, func(world *mpi.Comm) error {
		// The shell around the rank program: this rank's slice of the world
		// (group, projection window, device, fault-wrapped I/O), the chaos
		// hooks at the batch boundary, and its slots in the report.
		rank := world.Rank()
		g := p.GroupOf(rank)
		reg := opts.Telemetry.Rank(rank)
		inj := opts.FaultInjector
		src, sink := opts.Source, opts.Output
		if inj != nil {
			src = fault.Source(src, inj, rank)
			sink = fault.Sink(sink, inj, rank)
		}
		group, err := world.Split(g, rank)
		if err != nil {
			return err
		}
		if group.Rank() != 0 {
			sink = nil // only the group leader stores
		}
		pLo, pHi := p.ProjWindow(p.RankInGroup(rank))
		dev := device.New(fmt.Sprintf("rank%d", rank), opts.DeviceMemBytes, workers)

		// Phase markers: when the injector carries a scenario phase
		// schedule, each rank's trace shows one warmup/inject/recovery
		// span per contiguous phase window — the inject window is then
		// visible in the Chrome trace right next to the faults it scoped,
		// and the SLO gate can align latencies to it.
		endPhase := func() {}
		defer func() { endPhase() }()
		phase := ""
		// Live-introspection feeds: the current batch gauge and stage/phase
		// status keys are what /statusz reports while the program runs.
		curBatch := reg.Gauge("core.current_batch")
		reg.SetStatus("stage", "run")
		defer reg.SetStatus("stage", "done")

		prog := &program{
			ReconOptions: ReconOptions{
				Source: src, Device: dev, Window: opts.Window,
				Sink: sink, Retry: opts.Retry, Checkpoint: opts.Checkpoint, Telemetry: reg,
			},
			sys: p.Sys, sched: p.schedule(g), pLo: pLo, pHi: pHi,
			group: group, hierarchical: opts.Hierarchical, ranksPerNode: opts.RanksPerNode,
			enter: func(c int) error {
				curBatch.Set(int64(c))
				// The batch boundary is the rank-kill injection point of the
				// chaos matrix: a scheduled kill surfaces here as a permanent
				// fault.Error, aborting this rank so its peers observe the
				// loss through world teardown.
				if err := inj.BatchStart(rank, c); err != nil {
					return fmt.Errorf("batch %d: %w", c, err)
				}
				if ph := inj.PhaseOf(rank); ph != "" && ph != phase {
					endPhase()
					endPhase = reg.Span("phase."+ph, c)
					phase = ph
					reg.SetStatus("phase", ph)
				}
				return nil
			},
		}
		// What the rank observed goes into the report however it leaves: in
		// a teardown every rank returns an error (the culprit its own, the
		// others ErrRankLost), and the partial report is the only account
		// of the work and traffic that happened before it.
		defer func() {
			report.BatchesDone[rank], report.BatchesSkipped[rank] = int(prog.done.Value()), int(prog.skipped.Value())
			report.Ledgers[rank] = dev.Snapshot()
			report.WorldStats[rank] = world.Stats()
			report.GroupStats[rank] = group.Stats()
		}()
		if err := prog.run(); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		report.Completed[rank] = true
		return nil
	})
	report.Elapsed = time.Since(start)
	// Snapshots are taken even on error so a chaos run's partial trace and
	// metrics are still exportable.
	report.Telemetry = opts.Telemetry.Snapshots()
	// On error the report is partial: each rank's slots show how far it got,
	// Completed which ranks finished.
	return report, err
}
