package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/telemetry"
)

// This file is the ULFM-style recovery driver of the framework: where
// RunDistributed gives up when a rank dies — deterministically, with a
// typed error, but terminally — Supervise shrinks the world and carries
// on. The discipline mirrors what MPI's User-Level Failure Mitigation
// brings to iFDK-class reconstructions: detect the failure (world
// teardown + RankLostError attribution), revoke the broken communicator
// (the attempt's goroutine world simply exits), shrink (re-plan over the
// survivors), and resume from the checkpoint journal. Because the journal
// keys slabs by their output identity z0 and the shrink rule refuses any
// re-plan that changes the slab layout or the per-batch reduction
// grouping, the recovered volume is bit-identical to a fault-free run.

// Supervisor defaults for callers that want them: a handful of restarts
// with sub-second backoff, doubled per restart up to the cap. The backoff
// exists to let an external condition (a flaky filesystem, a saturated
// host) clear, not to paper over deterministic bugs — hence the small
// budget.
const (
	DefaultMaxRestarts       = 3
	DefaultRestartBackoff    = 250 * time.Millisecond
	DefaultRestartBackoffCap = 5 * time.Second
)

// ErrWorldTooSmall is the sentinel matched (via errors.Is) when no
// surviving-rank count admits a layout-preserving re-plan.
var ErrWorldTooSmall = errors.New("core: surviving ranks cannot preserve the plan's slab layout")

// ErrRestartBudget is the sentinel matched (via errors.Is) when the
// supervisor gives up because the restart budget is spent.
var ErrRestartBudget = errors.New("core: restart budget exhausted")

// ShrinkError reports that a shrunk world cannot host the plan. The only
// legal shrinks keep Nr (the per-batch reduction grouping, and with it
// the float32 summation order) and the slab layout intact; fewer
// survivors than one full group leaves nothing to shrink to.
type ShrinkError struct {
	Survivors      int
	NRanksPerGroup int
	Fingerprint    string
}

func (e *ShrinkError) Error() string {
	return fmt.Sprintf("core: no layout-preserving plan for %d survivors (need a multiple of Nr=%d ranks matching %s)",
		e.Survivors, e.NRanksPerGroup, e.Fingerprint)
}

// Is lets errors.Is(err, ErrWorldTooSmall) match.
func (e *ShrinkError) Is(target error) bool { return target == ErrWorldTooSmall }

// RestartBudgetError wraps the last attempt's failure when the supervisor
// runs out of restarts after spending at least one.
type RestartBudgetError struct {
	Restarts int
	Err      error // the attempt failure that exceeded the budget
}

func (e *RestartBudgetError) Error() string {
	return fmt.Sprintf("core: giving up after %d restarts: %v", e.Restarts, e.Err)
}

func (e *RestartBudgetError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, ErrRestartBudget) match.
func (e *RestartBudgetError) Is(target error) bool { return target == ErrRestartBudget }

// shrinkPlan re-plans p for a world of `survivors` ranks under the two
// rules that keep recovery bit-identical:
//
//  1. Nr is pinned. Each batch's slab is the sum of Nr partial
//     back-projections, accumulated pairwise up a binomial tree in a fixed
//     order; changing Nr regroups the float32 summation and changes the
//     rounding. Shrinks therefore remove whole groups, never group
//     members.
//  2. The slab layout is pinned. The candidate (Ng', Nc') must cut the
//     plan's window into exactly the original (z0, nz) slabs — checked via
//     Fingerprint — so journal records keep naming the same bytes and
//     each executed batch equals its fault-free counterpart.
//
// The largest qualifying Ng' ≤ survivors/Nr wins (use the most survivors
// possible). survivors ≥ p.Ranks() returns p unchanged; no qualifying
// candidate returns a *ShrinkError (ErrWorldTooSmall).
func shrinkPlan(p *Plan, survivors int) (*Plan, error) {
	if survivors >= p.Ranks() {
		return p, nil
	}
	nr := p.NRanksPerGroup
	want := p.Fingerprint()
	for ng := survivors / nr; ng >= 1; ng-- {
		// Keep the original batch height: groups that cover more slices
		// run more batches of the same Nb, preserving the slab grid.
		spg := ceilDiv(p.nz, ng)
		nc := ceilDiv(spg, p.slicesPerBatch)
		cand, err := NewWindowPlan(p.Sys, ng, nr, nc, p.z0, p.nz)
		if err != nil {
			continue
		}
		if cand.Fingerprint() == want {
			return cand, nil
		}
	}
	return nil, &ShrinkError{Survivors: survivors, NRanksPerGroup: nr, Fingerprint: want}
}

// SuperviseOptions configures a supervised reconstruction.
type SuperviseOptions struct {
	// Cluster is the run configuration of the first attempt; later
	// attempts reuse it with Plan replaced by the shrunk re-plan. Set
	// Cluster.CollectiveDeadline so an un-attributable stall still
	// surfaces as ErrRankLost instead of hanging the supervisor.
	Cluster ClusterOptions
	// OpenCheckpoint, when set, opens the checkpoint journal for a plan
	// fingerprint — called once per attempt, closed (if the log is an
	// io.Closer) when the attempt ends. Wire it to storage.OpenJournal:
	//
	//	OpenCheckpoint: func(fp string) (core.CheckpointLog, error) {
	//		return storage.OpenJournal(journalPath, fp)
	//	}
	//
	// The indirection keeps core free of I/O imports while letting the
	// supervisor reopen the journal after every world rebuild; an
	// in-memory log can simply be returned every time. It is the only way
	// a journal reaches a supervised run: Cluster.Checkpoint must be nil.
	// Unset, attempts restart from batch zero and recovery is correct but
	// does all the work again.
	OpenCheckpoint func(fingerprint string) (CheckpointLog, error)
	// MaxRestarts bounds how many times the world is relaunched after a
	// recoverable failure, literally: 0 runs exactly one attempt and
	// returns its error unchanged. Negative is refused. Callers that want
	// the default pass DefaultMaxRestarts.
	MaxRestarts int
	// RestartBackoff is the delay before the first relaunch, doubled per
	// restart up to DefaultRestartBackoffCap; 0 means
	// DefaultRestartBackoff.
	RestartBackoff time.Duration
	// Follower marks this supervisor as a non-coordinator process of a
	// multi-process world (Cluster.Launch set). Followers make the same
	// attempt/shrink decisions — the transport's verdict protocol hands
	// every process identical loss attributions — but skip the shared-
	// registry supervise telemetry (counters, gauges, attempt spans), so
	// a fleet sharing one registry records each restart exactly once, by
	// the coordinator.
	Follower bool
}

// SuperviseAttempt records one world launch under Supervise.
type SuperviseAttempt struct {
	// World is the rank count the attempt ran with, Plan its layout.
	World int
	Plan  string
	// Elapsed is the attempt's wall-clock time.
	Elapsed time.Duration
	// Err is nil for the final successful attempt. Lost names the world
	// ranks (in the attempt's own numbering) declared dead, when the
	// failure could be attributed.
	Err  error
	Lost []int
}

// SuperviseReport aggregates a supervised run: every attempt, the final
// attempt's ClusterReport, and the recovery totals.
type SuperviseReport struct {
	// Final is the last attempt's report (partial if that attempt
	// failed); Plan is the plan it ran with.
	Final *ClusterReport
	Plan  *Plan
	// Attempts lists every world launch in order.
	Attempts []SuperviseAttempt
	// Restarts counts relaunches (len(Attempts)-1). Lost accumulates the
	// attributed dead ranks across attempts, each in the numbering of the
	// attempt that lost it; TotalLost additionally counts losses that
	// could not be attributed to a specific rank.
	Restarts  int
	Lost      []int
	TotalLost int
}

// String renders the per-attempt recovery story.
func (r *SuperviseReport) String() string {
	s := fmt.Sprintf("supervise: %d attempts, %d restarts, %d ranks lost\n",
		len(r.Attempts), r.Restarts, r.TotalLost)
	for i, a := range r.Attempts {
		if a.Err == nil {
			s += fmt.Sprintf("  attempt %d: %d ranks %s ok in %v\n",
				i, a.World, a.Plan, a.Elapsed.Round(time.Millisecond))
			continue
		}
		s += fmt.Sprintf("  attempt %d: %d ranks %s failed after %v (lost %v): %v\n",
			i, a.World, a.Plan, a.Elapsed.Round(time.Millisecond), a.Lost, a.Err)
	}
	return s
}

// attemptLostRanks unions every loss attribution in err: ranks named by
// RankLostError teardowns and ranks killed by scheduled OpKill faults.
// The latter matters for worlds where the dead rank has no peer blocked
// on it (Nr=1: no group collective to observe the death) — the kill error
// itself is then the only witness.
func attemptLostRanks(err error) []int {
	lost := mpi.LostRanks(err)
	walkErrTree(err, func(e error) {
		if fe, ok := e.(*fault.Error); ok && fe.Op == fault.OpKill {
			lost = append(lost, fe.Rank)
		}
	})
	slices.Sort(lost)
	return slices.Compact(lost)
}

// walkErrTree visits every node of err's tree, following both single and
// joined (Unwrap() []error) wrapping.
func walkErrTree(err error, visit func(error)) {
	if err == nil {
		return
	}
	visit(err)
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		for _, child := range u.Unwrap() {
			walkErrTree(child, visit)
		}
	case interface{ Unwrap() error }:
		walkErrTree(u.Unwrap(), visit)
	}
}

// recoverable reports whether a failed attempt is worth relaunching: the
// world tore down on a lost rank, or the failure is classified transient.
// A permanent failure with no rank loss (bad geometry, a corrupt source)
// would recur identically on every attempt, so the supervisor surfaces it
// instead of burning the budget.
func recoverable(err error, lost []int) bool {
	return len(lost) > 0 || errors.Is(err, mpi.ErrRankLost) || fault.IsTransient(err)
}

// restartBackoff doubles base per restart, capped at
// DefaultRestartBackoffCap.
func restartBackoff(base time.Duration, restart int) time.Duration {
	d := base
	for i := 1; i < restart && d < DefaultRestartBackoffCap; i++ {
		d *= 2
	}
	return min(d, DefaultRestartBackoffCap)
}

// Supervise runs a distributed reconstruction to completion across rank
// loss: each attempt calls RunDistributed, and when the world tears down
// on a lost rank (or a transiently-classified failure), the supervisor
// re-plans over the survivors via shrinkPlan, reopens the checkpoint
// journal, and relaunches in-process — under MaxRestarts with doubling
// backoff. A budget of 0 is exactly one RunDistributed attempt. With a
// journal wired in (OpenCheckpoint), a relaunch skips every slab already
// durable and the final volume is bit-identical to a fault-free run; the
// chaos kill-matrix test pins exactly that guarantee for every (rank,
// batch) single-kill schedule.
//
// Recovery is reported two ways: the returned SuperviseReport (one entry
// per attempt) and — when Cluster.Telemetry is set — the shared
// registry's supervise.restarts counter, supervise.lost_ranks and
// supervise.world_ranks gauges, plus one supervise.attempt span per
// launch (batch = attempt index).
//
// The report is returned non-nil even on failure, alongside a typed
// error: *RestartBudgetError (ErrRestartBudget) when the budget is spent
// after at least one restart, *ShrinkError (ErrWorldTooSmall) joined to
// the attempt failure when the survivors cannot host the plan, storage's ErrPlanMismatch when the
// journal belongs to a different plan, or the attempt error itself when
// it is not recoverable or the budget is 0.
func Supervise(opts SuperviseOptions) (*SuperviseReport, error) {
	c := opts.Cluster
	if c.Plan == nil || c.Source == nil || c.Output == nil {
		return nil, fmt.Errorf("core: Supervise requires Cluster.Plan, Source and Output")
	}
	if c.Checkpoint != nil {
		return nil, fmt.Errorf("core: Supervise takes its journal through OpenCheckpoint, not Cluster.Checkpoint")
	}
	if opts.MaxRestarts < 0 {
		return nil, fmt.Errorf("core: negative restart budget %d", opts.MaxRestarts)
	}
	base := opts.RestartBackoff
	if base <= 0 {
		base = DefaultRestartBackoff
	}
	var shared *telemetry.Registry
	if !opts.Follower {
		shared = c.Telemetry.Shared()
	}
	restarts := shared.Counter("supervise.restarts")
	lostGauge := shared.Gauge("supervise.lost_ranks")
	worldGauge := shared.Gauge("supervise.world_ranks")

	rep := &SuperviseReport{}
	plan := c.Plan
	for attempt := 0; ; attempt++ {
		worldGauge.Set(int64(plan.Ranks()))
		run := c
		run.Plan = plan
		if opts.OpenCheckpoint != nil {
			ck, err := opts.OpenCheckpoint(plan.Fingerprint())
			if err != nil {
				return rep, fmt.Errorf("core: supervise attempt %d: %w", attempt, err)
			}
			run.Checkpoint = ck
		}
		endAttempt := shared.Span("supervise.attempt", attempt)
		t0 := time.Now()
		crep, err := RunDistributed(run)
		endAttempt()
		if cl, ok := run.Checkpoint.(io.Closer); ok {
			if cerr := cl.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("core: supervise attempt %d: close checkpoint: %w", attempt, cerr)
			}
		}
		lost := attemptLostRanks(err)
		rep.Attempts = append(rep.Attempts, SuperviseAttempt{
			World:   plan.Ranks(),
			Plan:    plan.String(),
			Elapsed: time.Since(t0),
			Err:     err,
			Lost:    lost,
		})
		rep.Plan = plan
		if crep != nil {
			rep.Final = crep
		}
		if err == nil || !recoverable(err, lost) {
			return rep, err
		}
		if rep.Restarts >= opts.MaxRestarts {
			if rep.Restarts == 0 {
				return rep, err
			}
			return rep, &RestartBudgetError{Restarts: rep.Restarts, Err: err}
		}
		shrinkBy := len(lost)
		if shrinkBy == 0 && errors.Is(err, mpi.ErrRankLost) {
			// The world tore down (or timed out) without naming the dead —
			// a deadline expiry, say. Assume the minimum loss; if more
			// ranks are actually gone the next attempt will name them. A
			// purely transient failure (no loss, no teardown) retries at
			// full size instead.
			shrinkBy = 1
		}
		if shrinkBy > 0 {
			next, serr := shrinkPlan(plan, plan.Ranks()-shrinkBy)
			if serr != nil {
				return rep, errors.Join(serr, err)
			}
			plan = next
			rep.Lost = append(rep.Lost, lost...)
			rep.TotalLost += shrinkBy
			lostGauge.Set(int64(rep.TotalLost))
		}
		rep.Restarts++
		restarts.Inc()
		time.Sleep(restartBackoff(base, rep.Restarts))
	}
}
