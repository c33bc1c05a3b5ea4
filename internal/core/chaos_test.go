package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// nonEmptyBatches counts the (group, batch) pairs a plan actually stores.
func nonEmptyBatches(p *Plan) int {
	n := 0
	for g := 0; g < p.NGroups; g++ {
		for c := 0; c < p.BatchCount; c++ {
			if _, nz := p.SlabZ(g, c); nz > 0 {
				n++
			}
		}
	}
	return n
}

// Transient chaos matrix: seeded schedules of flaky loads, flaky stores
// and stragglers must be fully absorbed by the retry policy and
// deadline-aware collectives — same exit code, bit-identical volume.
func TestChaosMatrixTransient(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, err := NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := NewVolumeSink(sys)
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: clean}); err != nil {
		t.Fatal(err)
	}

	schedules := []struct {
		name  string
		seed  int64
		rules []fault.Rule
	}{
		{"first-load-flaky-everywhere", 1, []fault.Rule{
			{Op: fault.OpLoad, Rank: fault.AnyRank, Nth: 1, Count: 1, Class: fault.Transient},
		}},
		{"rank2-load-double-fault", 2, []fault.Rule{
			{Op: fault.OpLoad, Rank: 2, Nth: 2, Count: 2, Class: fault.Transient},
		}},
		{"leader-store-flaky", 3, []fault.Rule{
			{Op: fault.OpStore, Rank: 0, Nth: 2, Count: 1, Class: fault.Transient},
			{Op: fault.OpStore, Rank: 2, Nth: 1, Count: 1, Class: fault.Transient},
		}},
		{"straggling-sends", 4, []fault.Rule{
			{Op: fault.OpSend, Rank: 1, Nth: 2, Count: 3, Delay: 5 * time.Millisecond},
			{Op: fault.OpRecv, Rank: 3, Nth: 1, Count: 1, Delay: 5 * time.Millisecond},
		}},
		{"mixed-weather", 5, []fault.Rule{
			{Op: fault.OpLoad, Rank: 1, Nth: 1, Count: 1, Class: fault.Transient},
			{Op: fault.OpStore, Rank: 0, Nth: 1, Count: 1, Class: fault.Transient},
			{Op: fault.OpSend, Rank: 3, Nth: 1, Count: 1, Delay: 3 * time.Millisecond},
		}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			in := fault.NewInjector(sched.seed, sched.rules...)
			sink, _ := NewVolumeSink(sys)
			rep, err := RunDistributed(ClusterOptions{
				Plan: p, Source: src, Output: sink,
				FaultInjector:      in,
				CollectiveDeadline: 5 * time.Second,
				Retry: &fault.RetryPolicy{
					MaxAttempts: 4,
					BaseDelay:   200 * time.Microsecond,
					MaxDelay:    2 * time.Millisecond,
					Seed:        sched.seed,
				},
			})
			if err != nil {
				t.Fatalf("transient schedule must be absorbed, got %v", err)
			}
			if in.Fired() == 0 {
				t.Fatal("schedule injected nothing — the matrix is not testing anything")
			}
			for r := 0; r < p.Ranks(); r++ {
				if !rep.Completed[r] {
					t.Fatalf("rank %d did not complete", r)
				}
			}
			for i := range clean.V.Data {
				if sink.V.Data[i] != clean.V.Data[i] {
					t.Fatalf("voxel %d: faulted run %g != clean run %g (recovery not bit-identical)",
						i, sink.V.Data[i], clean.V.Data[i])
				}
			}
		})
	}
}

// Permanent chaos matrix: a dead rank must surface as a typed error within
// the collective deadline — never a hang, never a silent partial volume —
// with the partial report identifying the survivors, and the world's
// goroutines fully torn down.
func TestChaosMatrixPermanent(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, err := NewPlan(sys, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	baseGoroutines := runtime.NumGoroutine()

	cases := []struct {
		name     string
		seed     int64
		rules    []fault.Rule
		wantLost bool // peers must observe mpi.ErrRankLost too
	}{
		{"rank3-loads-dead", 10, []fault.Rule{
			{Op: fault.OpLoad, Rank: 3, Nth: 2, Count: fault.Every, Class: fault.Permanent},
		}, true},
		{"rank1-link-dead", 11, []fault.Rule{
			{Op: fault.OpSend, Rank: 1, Nth: 3, Count: fault.Every, Class: fault.Permanent},
		}, true},
		{"leader-store-dead", 12, []fault.Rule{
			{Op: fault.OpStore, Rank: 0, Nth: 2, Count: fault.Every, Class: fault.Permanent},
		}, false},
		{"rank2-recv-dead", 13, []fault.Rule{
			{Op: fault.OpRecv, Rank: 2, Nth: 1, Count: fault.Every, Class: fault.Permanent},
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := fault.NewInjector(tc.seed, tc.rules...)
			sink, _ := NewVolumeSink(sys)
			start := time.Now()
			rep, err := RunDistributed(ClusterOptions{
				Plan: p, Source: src, Output: sink,
				FaultInjector:      in,
				CollectiveDeadline: 250 * time.Millisecond,
				// Retry configured on purpose: permanent faults must punch
				// straight through it.
				Retry: &fault.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, Seed: tc.seed},
			})
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("permanent fault produced a silently successful run")
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("error does not carry the injected fault: %v", err)
			}
			if tc.wantLost && !errors.Is(err, mpi.ErrRankLost) {
				t.Fatalf("peers of the dead rank did not observe ErrRankLost: %v", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("teardown took %v with a 250ms collective deadline", elapsed)
			}
			if rep == nil {
				t.Fatal("partial report missing alongside the error")
			}
			completed := 0
			for _, done := range rep.Completed {
				if done {
					completed++
				}
			}
			if completed == p.Ranks() {
				t.Fatal("report claims all ranks completed despite the error")
			}
			// The partial report is the only account of what happened before
			// the teardown, in which every rank may leave with an error: a
			// rank that got through a batch shows its work and traffic,
			// completed or not.
			for r := range rep.Completed {
				if rep.BatchesDone[r] == 0 {
					continue
				}
				if rep.Ledgers[r].VoxelUpdates == 0 || rep.Ledgers[r].H2DBytes == 0 {
					t.Errorf("rank %d executed %d batches (completed=%v) but its ledger is empty: %+v",
						r, rep.BatchesDone[r], rep.Completed[r], rep.Ledgers[r])
				}
				if gs := rep.GroupStats[r]; gs.BytesSent+gs.BytesRecv == 0 {
					t.Errorf("rank %d executed %d batches (completed=%v) but its group stats are empty",
						r, rep.BatchesDone[r], rep.Completed[r])
				}
			}
			if tc.name == "leader-store-dead" {
				// Rank 1 reduces straight into the dead leader: it finished
				// the batches the leader stored or died on, and can never
				// finish the rest (12 more chunks against a buffer of 8).
				if rep.Completed[1] || rep.BatchesDone[1] == 0 {
					t.Fatalf("rank 1: completed=%v after %d batches, want a torn-down survivor with work done",
						rep.Completed[1], rep.BatchesDone[1])
				}
				if rep.GroupStats[1].BytesSent == 0 || rep.Ledgers[1].VoxelUpdates == 0 {
					t.Errorf("survivor rank 1 moved %d B and made %d updates according to the partial report",
						rep.GroupStats[1].BytesSent, rep.Ledgers[1].VoxelUpdates)
				}
				for _, line := range strings.Split(rep.String(), "\n") {
					if strings.HasPrefix(line, "rank  1:") && (strings.Contains(line, "sent 0 B") || !strings.Contains(line, "[incomplete]")) {
						t.Errorf("summary line for the survivor: %q, want its traffic and [incomplete]", line)
					}
				}
			}
		})
	}

	// After every teardown in the matrix, the runtime must settle back to
	// its pre-matrix goroutine count: nothing may leak.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseGoroutines+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across the chaos matrix: %d now vs %d at start",
		runtime.NumGoroutine(), baseGoroutines)
}

// Kill-and-resume, distributed: a run killed by a dead group leader leaves
// a partial volume and a checkpoint journal on disk; reopening both and
// re-running the same plan skips the journaled batches and produces a
// final file byte-identical to an uninterrupted run's.
func TestChaosKillAndResume(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	dir := t.TempDir()

	p, err := NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference file.
	refPath := filepath.Join(dir, "ref.fbk")
	refW, err := storage.NewSlabWriter(refPath, sys.NX, sys.NY, sys.NZ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: refW}); err != nil {
		t.Fatal(err)
	}
	if err := refW.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 1: group 1's leader (world rank 2) dies permanently at its
	// second store. Group 0 keeps journaling its own batches.
	outPath := filepath.Join(dir, "vol.fbk")
	journalPath := filepath.Join(dir, "vol.journal")
	w, err := storage.NewSlabWriter(outPath, sys.NX, sys.NY, sys.NZ)
	if err != nil {
		t.Fatal(err)
	}
	j, err := storage.OpenJournal(journalPath, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(99,
		fault.Rule{Op: fault.OpStore, Rank: 2, Nth: 2, Count: fault.Every, Class: fault.Permanent})
	rep, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: w,
		FaultInjector:      in,
		CollectiveDeadline: 250 * time.Millisecond,
		Checkpoint:         j,
	})
	if err == nil {
		t.Fatal("the kill schedule did not kill the run")
	}
	if rep == nil || rep.Completed[2] {
		t.Fatalf("rank 2 must not be reported complete: %+v", rep)
	}
	// Simulate the crash-consistent shutdown a real process gets for free
	// from the OS: partial volume stays on disk, journal is closed as-is.
	if err := w.ClosePartial(); err != nil {
		t.Fatal(err)
	}
	recorded := j.Len()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	total := nonEmptyBatches(p)
	if recorded == 0 || recorded >= total {
		t.Fatalf("journal has %d of %d batches; the kill should land strictly between", recorded, total)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("final output path must not exist after a killed run")
	}

	// Run 2: reopen journal and partial volume, replay the plan. Journaled
	// batches are skipped; the rest are redone fault-free.
	j2, err := storage.OpenJournal(journalPath, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != recorded {
		t.Fatalf("journal lost entries across reopen: %d vs %d", j2.Len(), recorded)
	}
	w2, err := storage.ResumeSlabWriter(outPath, p.Output())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: w2,
		CollectiveDeadline: 5 * time.Second,
		Checkpoint:         j2,
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	executed := 0
	for _, n := range rep2.BatchesDone {
		executed += n
	}
	// Every rank skips its group's journaled batches; Nr ranks execute
	// each remaining batch.
	if want := (total - recorded) * p.NRanksPerGroup; executed != want {
		t.Fatalf("resume executed %d rank-batches, want %d (skipping not effective)", executed, want)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Remove(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed volume is not byte-identical to the uninterrupted run")
	}
}

// Kill-and-resume, single device: ReconstructSingle honours the same
// retry + checkpoint contract as the distributed driver.
func TestReconstructSingleRetryAndResume(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	dir := t.TempDir()

	p, err := NewPlan(sys, 1, 1, 6)
	if err != nil {
		t.Fatal(err)
	}

	refPath := filepath.Join(dir, "ref.fbk")
	refW, err := storage.NewSlabWriter(refPath, sys.NX, sys.NY, sys.NZ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: src, Device: device.New("ref", 0, 2), Sink: refW,
	}); err != nil {
		t.Fatal(err)
	}
	if err := refW.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 1: flaky loads (absorbed by the retry policy) plus a permanent
	// store failure at the fourth slab (the kill).
	outPath := filepath.Join(dir, "vol.fbk")
	journalPath := filepath.Join(dir, "vol.journal")
	w, err := storage.NewSlabWriter(outPath, sys.NX, sys.NY, sys.NZ)
	if err != nil {
		t.Fatal(err)
	}
	j, err := storage.OpenJournal(journalPath, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(7,
		fault.Rule{Op: fault.OpLoad, Rank: 0, Nth: 2, Count: 1, Class: fault.Transient},
		fault.Rule{Op: fault.OpStore, Rank: 0, Nth: 4, Count: fault.Every, Class: fault.Permanent})
	_, err = ReconstructSingle(ReconOptions{
		Plan:       p,
		Source:     fault.Source(src, in, 0),
		Device:     device.New("chaos", 0, 2),
		Sink:       fault.Sink(w, in, 0),
		Retry:      &fault.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, Seed: 7},
		Checkpoint: j,
	})
	if err == nil {
		t.Fatal("permanent store fault did not abort the run")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("abort is not the injected fault: %v", err)
	}
	if err := w.ClosePartial(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("journal has %d batches, want the 3 stored before the kill", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: resume fault-free; only the missing batches run.
	j2, err := storage.OpenJournal(journalPath, p.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := storage.ResumeSlabWriter(outPath, p.Output())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReconstructSingle(ReconOptions{
		Plan: p, Source: src, Device: device.New("resume", 0, 2),
		Sink: w2, Checkpoint: j2,
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if rep.Slabs != 3 {
		t.Fatalf("resume processed %d slabs, want the 3 missing ones", rep.Slabs)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Remove(); err != nil {
		t.Fatal(err)
	}

	got, _ := os.ReadFile(outPath)
	want, _ := os.ReadFile(refPath)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed single-device volume is not byte-identical to the uninterrupted run")
	}
}

// shortSource serves every load but the one that ends at row hi, which
// comes back a row short: the ring then lacks a row the slab needs, and the
// back-projection of that batch fails.
type shortSource struct {
	projection.Source
	hi int
}

func (s shortSource) LoadRows(rows geometry.RowRange, pLo, pHi int) (*projection.Stack, error) {
	st, err := s.Source.LoadRows(rows, pLo, pHi)
	if err == nil && rows.Hi == s.hi {
		st.NV--
		st.Data = st.Data[:st.NV*st.NP*st.NU]
	}
	return st, err
}

// failingSink stores slabs until the one at z0 == at, which it refuses.
type failingSink struct{ at int }

func (s failingSink) WriteSlab(slab *volume.Volume) error {
	if slab.Z0 == s.at {
		return errors.New("disk full")
	}
	return nil
}

// Under pipeline.Run the kernel of a batch waits for the slab the batch
// before hands back as it leaves the rank. A batch that fails must hand it
// back too: a store that fails at batch 1, and a back-projection that fails
// at batch 2, of 64 one-slice batches each end the run promptly with their
// error and leave no goroutine behind. No batch past the failure runs its
// kernel: the slab comes back marked failed. A windowed plan runs the same
// program, so a load that fails in the middle of its window ends it as
// promptly.
func TestPipelinedFailureHandsBackSlab(t *testing.T) {
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 16, NV: 200, DU: 0.5, DV: 0.25,
		NP: 8,
		NX: 8, NY: 8, NZ: 64, DX: 0.5, DY: 0.5, DZ: 0.5,
	}
	full := &projection.Stack{NU: sys.NU, NP: sys.NP, NV: sys.NV, Data: make([]float32, sys.NU*sys.NP*sys.NV)}
	for i := range full.Data {
		full.Data[i] = 1
	}
	p, err := NewPlan(sys, 1, 1, sys.NZ)
	if err != nil {
		t.Fatal(err)
	}
	// returns runs one reconstruction and hands back its error, failing the
	// test if it does not return.
	returns := func(t *testing.T, run func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("the pipelined run did not return after a failure: a slab was not handed back")
			return nil
		}
	}
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		stage string // the stage that fails
		batch int
		src   projection.Source
		sink  SlabSink
	}{
		{"store", 1, &projection.MemorySource{Full: full}, failingSink{at: 1}},
		{"backproject", 2, shortSource{&projection.MemorySource{Full: full}, sys.ComputeAB(2, 3).Hi}, failingSink{at: -1}},
	} {
		t.Run(tc.stage, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			err := returns(t, func() error {
				_, err := ReconstructSingle(ReconOptions{Plan: p, Source: tc.src, Device: device.New("hang", 0, 2),
					Sink: tc.sink, Telemetry: reg})
				return err
			})
			if want := fmt.Sprintf("stage %q batch %d", tc.stage, tc.batch); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one from %s", err, want)
			}
			kernels := 0
			for _, s := range reg.Spans() {
				if s.Name == "backproject" {
					kernels++
				}
			}
			if kernels > tc.batch+1 {
				t.Errorf("%d kernel invocations for a failure at batch %d: a batch past it back-projected", kernels, tc.batch)
			}
		})
	}
	t.Run("roi-load", func(t *testing.T) {
		in := fault.NewInjector(7, fault.Rule{Op: fault.OpLoad, Rank: 0, Nth: 4, Count: fault.Every, Class: fault.Permanent})
		win, err := NewWindowPlan(sys, 1, 1, 48, 8, 48)
		if err != nil {
			t.Fatal(err)
		}
		err = returns(t, func() error {
			_, err := ReconstructSingle(ReconOptions{Plan: win, Source: fault.Source(&projection.MemorySource{Full: full}, in, 0),
				Device: device.New("hang", 0, 2), Sink: failingSink{at: -1}})
			return err
		})
		if !errors.Is(err, fault.ErrInjected) || !strings.Contains(err.Error(), `stage "load"`) {
			t.Fatalf("error %v, want the injected load fault", err)
		}
	})
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
	}
}
