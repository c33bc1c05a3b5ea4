package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/pipeline"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
)

// memLog is an in-memory CheckpointLog keyed by z0. Like storage.Journal it
// is safe for the executor, whose load stage asks Done while its store stage
// Records.
type memLog struct {
	mu   sync.Mutex
	done map[int]bool
}

func (l *memLog) Done(z0 int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done[z0]
}

func (l *memLog) Record(z0, _ int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done[z0] = true
	return nil
}

// The title's claim: a one-rank RunDistributed and ReconstructSingle are the
// same program, so they give the same bytes, the same transfer and update
// ledger, and the same batch count — uninterrupted, and resumed from a
// journal that already holds half the slabs.
func TestOneRankDistributedIsSingle(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	p, err := NewPlan(sys, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, resumed := range []bool{false, true} {
		journal := func() CheckpointLog {
			if !resumed {
				return nil
			}
			l := &memLog{done: map[int]bool{}}
			for c := 0; c < p.BatchCount; c += 2 {
				z0, _ := p.SlabZ(0, c)
				l.done[z0] = true
			}
			return l
		}
		want := p.BatchCount
		if resumed {
			want /= 2
		}

		single, _ := NewVolumeSink(sys)
		srep, err := ReconstructSingle(ReconOptions{
			Plan: p, Source: src, Device: device.New("single", 0, 1), Sink: single, Checkpoint: journal(),
		})
		if err != nil {
			t.Fatal(err)
		}
		dist, _ := NewVolumeSink(sys)
		drep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: dist, Checkpoint: journal()})
		if err != nil {
			t.Fatal(err)
		}

		for i := range single.V.Data {
			if single.V.Data[i] != dist.V.Data[i] {
				t.Fatalf("resumed=%v: voxel %d: distributed %g != single %g", resumed, i, dist.V.Data[i], single.V.Data[i])
			}
		}
		sl, dl := srep.Ledger, drep.Ledgers[0]
		if sl.H2DBytes != dl.H2DBytes || sl.VoxelUpdates != dl.VoxelUpdates {
			t.Errorf("resumed=%v: ledgers differ: single H2D %d updates %d, distributed H2D %d updates %d",
				resumed, sl.H2DBytes, sl.VoxelUpdates, dl.H2DBytes, dl.VoxelUpdates)
		}
		if srep.Slabs != want || drep.BatchesDone[0] != want {
			t.Errorf("resumed=%v: single stored %d slabs, distributed executed %d batches, want %d",
				resumed, srep.Slabs, drep.BatchesDone[0], want)
		}
		if skipped := p.BatchCount - want; drep.BatchesSkipped[0] != skipped {
			t.Errorf("resumed=%v: distributed skipped %d batches, want %d", resumed, drep.BatchesSkipped[0], skipped)
		}
	}
}

// The stage a rank died in must be in the partial report: a permanent store
// fault on the leader leaves a closed store span tagged with the failing
// batch in that rank's snapshot, and the error names stage and batch.
func TestFailingStageLeavesItsSpan(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	p, err := NewPlan(sys, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const failing = 2 // the leader's third store
	in := fault.NewInjector(7,
		fault.Rule{Op: fault.OpStore, Rank: 0, Nth: failing + 1, Count: fault.Every, Class: fault.Permanent})
	sink, _ := NewVolumeSink(sys)
	rep, err := RunDistributed(ClusterOptions{
		Plan: p, Source: src, Output: sink, FaultInjector: in, Telemetry: telemetry.NewRun(p.Ranks()),
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("run did not abort on the injected store fault: %v", err)
	}
	if want := fmt.Sprintf("stage %q batch %d", "store", failing); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if rep.BatchesDone[0] != failing {
		t.Errorf("leader executed %d batches before the fault, want %d", rep.BatchesDone[0], failing)
	}
	var stores []int
	for _, s := range rep.Telemetry {
		if s.Rank != 0 {
			continue
		}
		for _, sp := range s.Spans {
			if sp.Name == "store" {
				stores = append(stores, sp.Batch)
			}
		}
	}
	if fmt.Sprint(stores) != "[0 1 2]" {
		t.Errorf("leader's store spans cover batches %v, want [0 1 2] (the failing store included)", stores)
	}
}

// spanNames returns the sorted set of span names a snapshot recorded.
func spanNames(spans []telemetry.Span) string {
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.Name] = true
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// The two shells of the one executor, a one-rank world and
// ReconstructSingle, record the same stages (the world's plus reduce), and a
// failing stage's error names stage and batch in both.
func TestShellsRecordSpansAndStageErrors(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	p, err := NewPlan(sys, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(world bool, src projection.Source, inj *fault.Injector) (string, error) {
		sink, _ := NewVolumeSink(sys)
		if world {
			rep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink, FaultInjector: inj, Telemetry: telemetry.NewRun(1)})
			return spanNames(rep.Telemetry[0].Spans), err
		}
		reg := telemetry.NewRegistry()
		if inj != nil {
			src = fault.Source(src, inj, 0)
		}
		_, err := ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: device.New("spans", 0, 1), Sink: sink, Telemetry: reg})
		return spanNames(reg.Spans()), err
	}
	world, err := run(true, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := run(false, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if world != "[backproject filter load reduce store]" || single != "[backproject filter load store]" {
		t.Errorf("one-rank world recorded stages %s, want [backproject filter load reduce store]; single %s, want [backproject filter load store]", world, single)
	}

	for _, world := range []bool{true, false} {
		in := fault.NewInjector(7,
			fault.Rule{Op: fault.OpLoad, Rank: 0, Nth: 2, Count: fault.Every, Class: fault.Permanent})
		_, err := run(world, src, in)
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("world=%v: run did not abort on the injected load fault: %v", world, err)
		}
		if want := `stage "load" batch 1`; !strings.Contains(err.Error(), want) {
			t.Errorf("world=%v: error %q does not name %s", world, err, want)
		}
	}
}

// Every rank program builds one stage list: in a 2×2 world each group
// leader records exactly load, filter, backproject, reduce and store, and
// every other rank the same without store — no rank has a stage of its own.
func TestRankStageList(t *testing.T) {
	sys := testSystem()
	p, err := NewPlan(sys, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := NewVolumeSink(sys)
	rep, err := RunDistributed(ClusterOptions{
		Plan: p, Source: &projection.MemorySource{Full: sheppStack(t, sys)}, Output: sink, Telemetry: telemetry.NewRun(p.Ranks()),
	})
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string]int{}
	for _, s := range rep.Telemetry[:p.Ranks()] {
		lists[spanNames(s.Spans)]++
	}
	want := map[string]int{
		"[backproject filter load reduce store]": p.NGroups,
		"[backproject filter load reduce]":       p.Ranks() - p.NGroups,
	}
	if fmt.Sprint(lists) != fmt.Sprint(want) {
		t.Errorf("the ranks' stage lists are %v, want %v", lists, want)
	}
}

// The rank program's two shells — ReconstructSingle and a one-rank
// RunDistributed — produce the same volume to the last bit at every device
// width: the width only cuts the filter's rows and the kernel's tiles among
// goroutines, and the shell only adds a reduce over a group of one.
func TestShellsBitIdentical(t *testing.T) {
	sys := testSystem()
	src := &projection.MemorySource{Full: sheppStack(t, sys)}
	p, err := NewPlan(sys, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float32
	for _, workers := range []int{1, 3} {
		for _, world := range []bool{false, true} {
			sink, _ := NewVolumeSink(sys)
			if world {
				_, err = RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink, WorkersPerRank: workers})
			} else {
				_, err = ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: device.New("exec", 0, workers), Sink: sink})
			}
			if err != nil {
				t.Fatalf("workers=%d world=%v: %v", workers, world, err)
			}
			if ref == nil {
				ref = sink.V.Data
				continue
			}
			for i := range ref {
				if sink.V.Data[i] != ref[i] {
					t.Fatalf("workers=%d world=%v: voxel %d: %g != single width 1 %g",
						workers, world, i, sink.V.Data[i], ref[i])
				}
			}
		}
	}
}

// A downstream failure never runs reduce or store without a slab. A group
// leader's store fails at batch 0 and hands the slab back while batch 1
// waits for it in backproject; the executor records the failure only once
// the store stage returns, so batch 1 can take the slab and reach reduce and
// store before that. The stages are driven here by hand in exactly that
// order: every invocation of batch 1 is idle, and the slab is back in its
// channel.
func TestFailedStoreIdlesTheQueuedBatch(t *testing.T) {
	sys := testSystem()
	err := mpi.RunWith(1, mpi.Options{}, func(world *mpi.Comm) error {
		e := &program{
			ReconOptions: ReconOptions{Device: device.New("race", 0, 1), Sink: failingSink{at: 0}},
			// Rows no detector row sees: backproject needs no ring.
			sys: sys, sched: []batch{{c: 0, z0: 0, nz: 1}, {c: 1, z0: 1, nz: 1}}, group: world,
			slab: make(chan []float32, 1), last: "store",
		}
		e.slab <- make([]float32, sys.NX*sys.NY)
		stages := []pipeline.Stage{e.stage("backproject", e.backproject), e.stage("reduce", e.reduce), e.stage("store", e.store)}
		for _, s := range stages {
			if err := s.Fn(0); (err != nil) != (s.Name == "store") {
				t.Fatalf("%s of batch 0: %v", s.Name, err)
			}
		}
		for _, s := range stages {
			if err := s.Fn(1); err != pipeline.Idle {
				t.Errorf("%s of batch 1 after the failed store: %v, want idle", s.Name, err)
			}
		}
		if len(e.slab) != 1 || e.done.Value() != 0 {
			t.Errorf("slab channel holds %d, %d batches done; want the slab back and none done", len(e.slab), e.done.Value())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The program's schedule for a group is the cut SlabZ/SlabRows describe —
// the one SlabLayout and the journal fingerprint are built from — minus the
// trailing empty batches, for even and uneven plans and windows alike.
func TestPlanScheduleMatchesSlabZ(t *testing.T) {
	for _, shape := range []struct{ nz, ng, nc, z0, wnz int }{
		{24, 1, 4, 0, 24}, {24, 2, 5, 0, 24}, {23, 3, 4, 0, 23}, {5, 4, 2, 0, 5}, {17, 2, 8, 0, 17},
		{24, 2, 3, 7, 9}, {24, 4, 2, 19, 5}, {17, 1, 8, 3, 1},
	} {
		sys := testSystem()
		sys.NZ = shape.nz
		p, err := NewWindowPlan(sys, shape.ng, 1, shape.nc, shape.z0, shape.wnz)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < p.NGroups; g++ {
			sched := p.schedule(g)
			for c := 0; c < p.BatchCount; c++ {
				z0, nz := p.SlabZ(g, c)
				if c >= len(sched) {
					if nz != 0 {
						t.Fatalf("%+v group %d: batch %d [%d,+%d) missing from the schedule", shape, g, c, z0, nz)
					}
					continue
				}
				if b := sched[c]; b.c != c || b.z0 != z0 || b.nz != nz || b.rows != p.SlabRows(g, c) {
					t.Fatalf("%+v group %d batch %d: schedule has %+v, plan [%d,+%d) rows %v", shape, g, c, b, z0, nz, p.SlabRows(g, c))
				}
			}
		}
	}
}
