package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
)

// float32Bytes views a volume's samples as raw bytes for bit-identity
// comparison without going through a file.
func float32Bytes(data []float32) []byte {
	out := make([]byte, 0, len(data)*4)
	for _, v := range data {
		bits := math.Float32bits(v)
		out = append(out, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	return out
}

// ShrinkPlan's contract: Nr and the slab layout are pinned, the largest
// qualifying group count wins, and an impossible shrink is the typed
// ErrWorldTooSmall — for the whole volume and for a window, which the shrunk
// plan keeps. The layout names the window, so two windows have two
// fingerprints.
func TestShrinkPlanPreservesLayoutAndNr(t *testing.T) {
	sys := testSystem()
	fingerprints := map[string]string{}
	for _, win := range []struct{ z0, nz int }{{0, sys.NZ}, {6, 12}, {7, 12}} {
		p, err := NewWindowPlan(sys, 2, 2, 2, win.z0, win.nz)
		if err != nil {
			t.Fatal(err)
		}
		if other, ok := fingerprints[p.Fingerprint()]; ok {
			t.Fatalf("window %v has the fingerprint of window %s", win, other)
		}
		fingerprints[p.Fingerprint()] = fmt.Sprint(win)

		// Losing one of four ranks: only a whole group can go.
		q, err := ShrinkPlan(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if q.NGroups != 1 || q.NRanksPerGroup != 2 {
			t.Fatalf("window %v: shrink 4→3 gave %s, want Ng=1 Nr=2", win, q)
		}
		if q.Output() != p.Output() {
			t.Fatalf("window %v: shrink moved the output from %v to %v", win, p.Output(), q.Output())
		}
		if q.Fingerprint() != p.Fingerprint() {
			t.Fatalf("window %v: shrink changed the fingerprint:\n  %s\n  %s", win, p.Fingerprint(), q.Fingerprint())
		}
		if fmt.Sprint(q.SlabLayout()) != fmt.Sprint(p.SlabLayout()) {
			t.Fatalf("window %v: shrink changed the slab layout:\n  %v\n  %v", win, p.SlabLayout(), q.SlabLayout())
		}

		// Enough survivors: the plan is returned unchanged.
		if same, err := ShrinkPlan(p, 4); err != nil || same != p {
			t.Fatalf("window %v: ShrinkPlan(4) = %v, %v; want the original plan", win, same, err)
		}

		// Fewer survivors than one group: typed refusal.
		_, err = ShrinkPlan(p, 1)
		if err == nil || !errors.Is(err, ErrWorldTooSmall) {
			t.Fatalf("window %v: ShrinkPlan(1) = %v, want ErrWorldTooSmall", win, err)
		}
		var se *ShrinkError
		if !errors.As(err, &se) || se.Survivors != 1 || se.NRanksPerGroup != 2 {
			t.Fatalf("window %v: ShrinkError coordinates wrong: %+v", win, se)
		}
	}
}

// The headline guarantee of the supervisor (ISSUE 5 acceptance): kill any
// single rank at any batch boundary and the supervised run completes
// without operator action, bit-identical to the fault-free volume. The
// injector schedule is seeded per cell, so every cell replays.
func TestSupervisedKillMatrixBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free reference volume.
	ref, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: ref}); err != nil {
		t.Fatal(err)
	}
	want := float32Bytes(ref.V.Data)

	for rank := 0; rank < p.Ranks(); rank++ {
		for batch := 0; batch < p.BatchCount; batch++ {
			rank, batch := rank, batch
			t.Run(fmt.Sprintf("kill-rank%d-batch%d", rank, batch), func(t *testing.T) {
				t.Parallel()
				in := fault.NewInjector(int64(1000 + rank*10 + batch))
				in.ScheduleKill(rank, batch)
				sink, err := NewVolumeSink(sys)
				if err != nil {
					t.Fatal(err)
				}
				journal := filepath.Join(t.TempDir(), "vol.journal")
				run := telemetry.NewRun(p.Ranks())
				rep, err := Supervise(SuperviseOptions{
					Cluster: ClusterOptions{
						Plan: p, Source: src, Output: sink,
						FaultInjector:      in,
						CollectiveDeadline: 5 * time.Second,
						Telemetry:          run,
					},
					OpenCheckpoint: func(fp string) (CheckpointLog, error) {
						return storage.OpenJournal(journal, fp)
					},
					MaxRestarts:    2,
					RestartBackoff: time.Millisecond,
				})
				if err != nil {
					t.Fatalf("supervised run did not recover: %v\n%s", err, rep)
				}
				if in.PendingKills() != 0 {
					t.Fatal("scheduled kill never fired — the cell tested nothing")
				}
				if rep.Restarts < 1 || len(rep.Attempts) != rep.Restarts+1 {
					t.Fatalf("restart accounting wrong: %s", rep)
				}
				if rep.Plan.Ranks() >= p.Ranks() {
					t.Fatalf("world did not shrink: finished on %s", rep.Plan)
				}
				if rep.Final == nil || rep.Attempts[0].Err == nil || !slices.Contains(rep.Attempts[0].Lost, rank) ||
					!slices.Contains(rep.Lost, rank) || rep.TotalLost < 1 {
					t.Fatalf("the report does not record rank %d's loss: %s", rank, rep)
				}
				if !strings.Contains(rep.String(), fmt.Sprintf("%d restarts", rep.Restarts)) {
					t.Fatalf("SuperviseReport.String() must surface the restarts:\n%s", rep)
				}
				if got := float32Bytes(sink.V.Data); !bytes.Equal(got, want) {
					t.Fatal("recovered volume is not bit-identical to the fault-free run")
				}
				// Telemetry reconciliation: the shared registry counts the
				// restarts; skipped batches show up in the skip counter,
				// never in core.batches.
				shared := run.Shared()
				if shared.Counter("supervise.restarts").Value() != int64(rep.Restarts) {
					t.Fatal("supervise.restarts counter does not match the report")
				}
				var skippedCounter int64
				for _, s := range rep.Final.Telemetry {
					if s.Rank >= 0 {
						skippedCounter += s.Counters["core.batches_skipped"]
					}
				}
				var skippedReport int
				for _, n := range rep.Final.BatchesSkipped {
					skippedReport += n
				}
				if skippedCounter != int64(skippedReport) {
					t.Fatalf("core.batches_skipped=%d, BatchesSkipped total=%d", skippedCounter, skippedReport)
				}
			})
		}
	}
}

// Two ranks dying at the same boundary shrink the world by a whole group
// in one restart and still recover bit-identically.
func TestSuperviseDoubleLossSameBoundary(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: ref}); err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(7)
	in.ScheduleKill(0, 1)
	in.ScheduleKill(1, 1)
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "vol.journal")
	rep, err := Supervise(SuperviseOptions{
		Cluster: ClusterOptions{
			Plan: p, Source: src, Output: sink,
			FaultInjector:      in,
			CollectiveDeadline: 5 * time.Second,
		},
		OpenCheckpoint: func(fp string) (CheckpointLog, error) {
			return storage.OpenJournal(journal, fp)
		},
		MaxRestarts:    3,
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("double loss did not recover: %v\n%s", err, rep)
	}
	if rep.TotalLost < 1 {
		t.Fatalf("no loss recorded: %s", rep)
	}
	if !bytes.Equal(float32Bytes(sink.V.Data), float32Bytes(ref.V.Data)) {
		t.Fatal("recovered volume is not bit-identical after a double loss")
	}
}

// When the survivors cannot host the plan (fewer than one full group),
// the supervisor surfaces the typed ErrWorldTooSmall instead of looping.
func TestSuperviseWorldTooSmall(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(11)
	// Attempt 0 (Ng=2 Nr=2 Nc=2): kill rank 0 at batch 0 → shrink to one
	// group of 2 ranks, which re-plans to Nc=4. Batch 2 exists only in
	// that shrunk plan, so the second kill fires on attempt 1 and leaves
	// a single survivor — less than one full group.
	in.ScheduleKill(0, 0)
	in.ScheduleKill(1, 2)
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Supervise(SuperviseOptions{
		Cluster: ClusterOptions{
			Plan: p, Source: src, Output: sink,
			FaultInjector:      in,
			CollectiveDeadline: 5 * time.Second,
		},
		MaxRestarts:    4,
		RestartBackoff: time.Millisecond,
	})
	if err == nil || !errors.Is(err, ErrWorldTooSmall) {
		t.Fatalf("err = %v, want ErrWorldTooSmall", err)
	}
}

// The restart budget is literal. A failure that recurs on every attempt
// exhausts a budget of 1 and surfaces the typed ErrRestartBudget wrapping
// the last attempt's error; a budget of 0 is one attempt whose error comes
// back unchanged; a negative budget is refused before anything runs.
func TestSuperviseRestartBudget(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	solo, err := NewPlan(sys, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank 0 load fails transiently, on every attempt, with no retry
	// policy to absorb it: recoverable each time (so the supervisor does
	// relaunch) but never fixed. With Nr=1 (solo) no peer blocks on the
	// failing rank, so there is no loss to attribute and no world shrink —
	// just a budget burning down.
	everyLoad := func() *fault.Injector {
		return fault.NewInjector(13,
			fault.Rule{Op: fault.OpLoad, Rank: 0, Nth: 1, Count: fault.Every, Class: fault.Transient})
	}
	// A rank killed at its first batch, which its group peer (pairs: Nr=2)
	// observes as a lost rank: recoverable by a shrink the budget may or
	// may not allow.
	kill := func() *fault.Injector {
		in := fault.NewInjector(13)
		in.ScheduleKill(1, 0)
		return in
	}
	for _, tc := range []struct {
		name     string
		plan     *Plan
		budget   int
		in       func() *fault.Injector
		attempts int
		want     error // errors.Is target; nil wants a refusal with no report
		notWant  error
	}{
		{"budget 1 spent", solo, 1, everyLoad, 2, ErrRestartBudget, nil},
		{"budget 0 transient", solo, 0, everyLoad, 1, fault.ErrInjected, ErrRestartBudget},
		{"budget 0 rank lost", pairs, 0, kill, 1, mpi.ErrRankLost, ErrRestartBudget},
		{"negative budget", pairs, -1, kill, 0, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := NewVolumeSink(sys)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Supervise(SuperviseOptions{
				Cluster: ClusterOptions{
					Plan: tc.plan, Source: src, Output: sink,
					FaultInjector:      tc.in(),
					CollectiveDeadline: 5 * time.Second,
				},
				MaxRestarts:    tc.budget,
				RestartBackoff: time.Millisecond,
			})
			if tc.want == nil {
				if err == nil || rep != nil {
					t.Fatalf("budget %d: report %v, err %v; want a refusal", tc.budget, rep, err)
				}
				return
			}
			if !errors.Is(err, tc.want) || (tc.notWant != nil && errors.Is(err, tc.notWant)) {
				t.Fatalf("err = %v, want %v and not %v", err, tc.want, tc.notWant)
			}
			if len(rep.Attempts) != tc.attempts || rep.Restarts != tc.attempts-1 {
				t.Fatalf("want %d attempts: %s", tc.attempts, rep)
			}
			var be *RestartBudgetError
			if errors.As(err, &be) {
				if be.Restarts != rep.Restarts {
					t.Fatalf("budget error names %d restarts, the report %d", be.Restarts, rep.Restarts)
				}
			} else if err != rep.Attempts[0].Err {
				t.Fatalf("budget 0 changed the attempt's error: %v, attempt %v", err, rep.Attempts[0].Err)
			}
		})
	}
}

// A permanent failure with no rank loss must not be retried: restarting
// cannot change a deterministic abort.
func TestSuperviseDoesNotRetryUnrecoverable(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A permanent store failure on a 1-rank group: nobody observes a
	// teardown (no collectives with Nr=1), the error classifies
	// permanent, and the supervisor must surface it on the first attempt.
	in := fault.NewInjector(17,
		fault.Rule{Op: fault.OpStore, Rank: 0, Nth: 1, Count: fault.Every, Class: fault.Permanent})
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Supervise(SuperviseOptions{
		Cluster: ClusterOptions{
			Plan: p, Source: src, Output: sink,
			FaultInjector:      in,
			CollectiveDeadline: 5 * time.Second,
		},
		MaxRestarts:    3,
		RestartBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("permanent store failure must fail the supervised run")
	}
	if errors.Is(err, ErrRestartBudget) {
		t.Fatalf("unrecoverable failure burned the restart budget: %v", err)
	}
	if rep != nil && len(rep.Attempts) > 1 {
		t.Fatalf("unrecoverable failure was retried %d times", len(rep.Attempts)-1)
	}
}

// Supervise + OpenCheckpoint against a journal stamped by a different
// plan: the typed mismatch error must surface through the supervisor.
func TestSuperviseJournalPlanMismatch(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	journal := filepath.Join(t.TempDir(), "vol.journal")

	// Stamp the journal with a 3-batch plan...
	other, err := NewPlan(sys, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	j, err := storage.OpenJournal(journal, other.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// ...then supervise a 2-batch plan against it.
	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() == other.Fingerprint() {
		t.Fatal("test setup: plans must have different fingerprints")
	}
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Supervise(SuperviseOptions{
		Cluster: ClusterOptions{Plan: p, Source: src, Output: sink},
		OpenCheckpoint: func(fp string) (CheckpointLog, error) {
			return storage.OpenJournal(journal, fp)
		},
	})
	if err == nil || !errors.Is(err, storage.ErrPlanMismatch) {
		t.Fatalf("err = %v, want ErrPlanMismatch", err)
	}
}

// A resumed (unsupervised) run reports its skips: BatchesSkipped in the
// report, core.batches_skipped in telemetry, and "+skipped" in String(),
// while BatchesDone keeps reconciling with core.batches.
func TestClusterReportSkippedBatches(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "vol.journal")
	j, err := storage.OpenJournal(journal, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink, Checkpoint: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Second run over the now-complete journal: everything skips.
	j2, err := storage.OpenJournal(journal, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	run := telemetry.NewRun(p.Ranks())
	rep, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: sink, Checkpoint: j2, Telemetry: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.Ranks(); r++ {
		if rep.BatchesDone[r] != 0 {
			t.Fatalf("rank %d executed %d batches on a complete journal", r, rep.BatchesDone[r])
		}
		if rep.BatchesSkipped[r] != p.BatchCount {
			t.Fatalf("rank %d skipped %d batches, want %d", r, rep.BatchesSkipped[r], p.BatchCount)
		}
		s := run.Rank(r).Snapshot()
		if s.Counters["core.batches"] != 0 {
			t.Fatalf("rank %d core.batches=%d on a fully skipped run", r, s.Counters["core.batches"])
		}
		if s.Counters["core.batches_skipped"] != int64(rep.BatchesSkipped[r]) {
			t.Fatalf("rank %d core.batches_skipped=%d, BatchesSkipped=%d",
				r, s.Counters["core.batches_skipped"], rep.BatchesSkipped[r])
		}
	}
	if !strings.Contains(rep.String(), "skipped") {
		t.Fatalf("String() must surface skipped batches:\n%s", rep)
	}
}

// One bookkeeper, two readings. The registry outlives the attempts of a
// supervised run and every device, communicator and rank program an attempt
// builds adds to it, so the metrics artifact alone states the whole run's
// H2D bytes, launches and voxel updates — while each attempt's own devices
// start at zero, so the final ClusterReport counts the final attempt only.
// Nr = 1 makes both attempts deterministic: no rank ever waits on another,
// so in attempt 0 rank 0 finishes its two batches, rank 1 finishes one and is
// killed at its second, and attempt 1 (one rank, four batches) skips the
// three journaled slabs and executes the fourth.
func TestSupervisedRunArtifactTotalsBothAttempts(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	p, err := NewPlan(sys, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(5)
	in.ScheduleKill(1, 1)
	sink, err := NewVolumeSink(sys)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "vol.journal")
	run := telemetry.NewRun(p.Ranks())
	rep, err := Supervise(SuperviseOptions{
		Cluster: ClusterOptions{
			Plan: p, Source: src, Output: sink, FaultInjector: in,
			CollectiveDeadline: 5 * time.Second, Telemetry: run,
		},
		OpenCheckpoint: func(fp string) (CheckpointLog, error) { return storage.OpenJournal(journal, fp) },
		MaxRestarts:    1,
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("supervised run did not recover: %v\n%s", err, rep)
	}
	if rep.Restarts != 1 || rep.Plan.Ranks() != 1 || rep.Plan.BatchCount != 4 {
		t.Fatalf("want one restart onto 1 rank × 4 batches, got %s", rep)
	}

	// What a rank's device counts over a run of consecutive batches of one
	// schedule, from the plan alone.
	type work struct{ h2d, launches, updates int64 }
	expect := func(batches []batch) (w work) {
		loaded := geometry.RowRange{}
		for _, b := range batches {
			w.h2d += 4 * int64(sys.NU) * int64(sys.NP) * int64(geometry.DifferentialRows(loaded, b.rows).Len())
			loaded = b.rows
			w.launches++
			w.updates += int64(sys.NX) * int64(sys.NY) * int64(b.nz) * int64(sys.NP)
		}
		return w
	}
	add := func(a, b work) work { return work{a.h2d + b.h2d, a.launches + b.launches, a.updates + b.updates} }
	first := add(expect(p.schedule(0)), expect(p.schedule(1)[:1]))
	final := expect(rep.Plan.schedule(0)[3:])

	var led work
	for _, l := range rep.Final.Ledgers {
		led = add(led, work{l.H2DBytes, l.KernelLaunches, l.VoxelUpdates})
	}
	if led != final {
		t.Errorf("final attempt's ledgers total %+v, want that attempt's one batch alone %+v", led, final)
	}
	if rep.Final.BatchesDone[0] != 1 || rep.Final.BatchesSkipped[0] != 3 {
		t.Errorf("final attempt executed %d and skipped %d batches, want 1 and 3",
			rep.Final.BatchesDone[0], rep.Final.BatchesSkipped[0])
	}

	var artifact bytes.Buffer
	if err := telemetry.WriteMetricsJSON(&artifact, rep.Final.Telemetry); err != nil {
		t.Fatal(err)
	}
	mrep, err := telemetry.ValidateMetricsJSON(artifact.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got work
	var batches int64
	for _, rm := range mrep.Ranks {
		got = add(got, work{rm.Counters["device.h2d_bytes"], rm.Counters["kernel.launches"], rm.Counters["kernel.voxel_updates"]})
		batches += rm.Counters["core.batches"]
	}
	if want := add(first, final); got != want {
		t.Errorf("metrics artifact totals %+v, want both attempts' %+v (attempt 0 %+v + attempt 1 %+v)", got, want, first, final)
	}
	if batches != 4 {
		t.Errorf("core.batches totals %d over the artifact, want the run's 4 executed batches", batches)
	}
}
