package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
)

// transportFleet builds a 3-proc loopback TCP fleet shaped for a 4-rank
// (Ng=2, Nr=2) reconstruction.
func transportFleet(t *testing.T, cfg nettrans.Config) *nettrans.Fleet {
	t.Helper()
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 25 * time.Millisecond
	}
	if cfg.DeathAfter == 0 {
		cfg.DeathAfter = 2 * time.Second
	}
	fl, err := nettrans.NewFleet(3, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(fl.Close)
	return fl
}

// TestTransportReconstructionBitIdentical reconstructs the same 4-rank
// plan over the in-process channel world and over a 3-process TCP fleet
// and requires bit-identical volumes: the socket transport must not
// perturb the float32 summation order, the slab routing, or anything
// else about the pipeline.
func TestTransportReconstructionBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := NewVolumeSink(sys)
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: ref}); err != nil {
		t.Fatal(err)
	}
	want := float32Bytes(ref.V.Data)

	reg := telemetry.NewRegistry()
	fl := transportFleet(t, nettrans.Config{Telemetry: reg})
	sink, _ := NewVolumeSink(sys)
	var wg sync.WaitGroup
	errs := make([]error, len(fl.Nodes))
	for i, n := range fl.Nodes {
		// Group leaders live on the coordinator (proc 0), so only its sink
		// ever sees a slab; followers run the same batch loop against a
		// discard sink.
		out := SlabSink(DiscardSink{})
		if i == 0 {
			out = sink
		}
		wg.Add(1)
		go func(i int, n *nettrans.Node, out SlabSink) {
			defer wg.Done()
			_, errs[i] = RunDistributed(ClusterOptions{
				Plan: p, Source: src, Output: out,
				Launch:             n.Launcher(p.NRanksPerGroup),
				CollectiveDeadline: 20 * time.Second,
			})
		}(i, n, out)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
	if got := float32Bytes(sink.V.Data); !bytes.Equal(got, want) {
		t.Fatal("TCP-transport volume is not bit-identical to the channel world")
	}
	// A clean wire stays up: no cut, and no reconnect to mistake for one.
	snap := reg.Snapshot().Counters
	if snap["transport.reconnects"] != 0 || snap["transport.severs"] != 0 {
		t.Fatalf("fault-free fleet reconstruction: %d reconnects, %d severs, want 0 and 0",
			snap["transport.reconnects"], snap["transport.severs"])
	}
}

// TestTransportSupervisedRecoveryBitIdentical is the full robustness
// drill over sockets: a wire-level connection sever mid-run (absorbed
// transparently by the link's reconnect + replay) followed by a rank
// kill on a worker process, which fails the epoch world-wide. Every
// process's supervisor must observe the same typed loss, shrink to the
// same 2-rank plan, resume from the shared journal, and leave the
// coordinator's volume byte-identical to a fault-free run.
func TestTransportSupervisedRecoveryBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}
	p, err := NewPlan(sys, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := NewVolumeSink(sys)
	if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: ref}); err != nil {
		t.Fatal(err)
	}
	want := float32Bytes(ref.V.Data)

	// One seeded schedule, shared by the whole fleet: sever the connection
	// under rank 1's second outgoing frame, then kill rank 1 (hosted on
	// worker proc 1) at batch 1.
	inj := fault.NewInjector(7, fault.Rule{Op: fault.OpSever, Rank: 1, Nth: 2})
	inj.ScheduleKill(1, 1)
	reg := telemetry.NewRegistry()
	fl := transportFleet(t, nettrans.Config{Injector: inj, Telemetry: reg})

	journal := filepath.Join(t.TempDir(), "vol.journal")
	sink, _ := NewVolumeSink(sys)
	run := telemetry.NewRun(p.Ranks())
	var wg sync.WaitGroup
	errs := make([]error, len(fl.Nodes))
	reports := make([]*SuperviseReport, len(fl.Nodes))
	for i, n := range fl.Nodes {
		out := SlabSink(DiscardSink{})
		if i == 0 {
			out = sink
		}
		wg.Add(1)
		go func(i int, n *nettrans.Node, out SlabSink) {
			defer wg.Done()
			reports[i], errs[i] = Supervise(SuperviseOptions{
				Cluster: ClusterOptions{
					Plan: p, Source: src, Output: out,
					FaultInjector:      inj,
					Launch:             n.Launcher(p.NRanksPerGroup),
					CollectiveDeadline: 20 * time.Second,
					Telemetry:          run,
				},
				// Every process reopens the same journal per attempt; only
				// the coordinator's group leaders ever append to it.
				OpenCheckpoint: func(fp string) (CheckpointLog, error) {
					return storage.OpenJournal(journal, fp)
				},
				MaxRestarts:    2,
				RestartBackoff: time.Millisecond,
				Follower:       i != 0,
			})
		}(i, n, out)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d supervised run did not recover: %v\n%s", i, err, reports[i])
		}
	}
	if inj.PendingKills() != 0 {
		t.Fatal("scheduled kill never fired")
	}
	// Every process made the same recovery decision.
	for i, rep := range reports {
		if rep.Restarts != reports[0].Restarts || rep.Plan.Fingerprint() != reports[0].Plan.Fingerprint() {
			t.Fatalf("proc %d diverged from coordinator: %d restarts on %s vs %d on %s",
				i, rep.Restarts, rep.Plan, reports[0].Restarts, reports[0].Plan)
		}
	}
	if reports[0].Restarts < 1 {
		t.Fatalf("no restart happened: %s", reports[0])
	}
	if reports[0].Plan.Ranks() >= p.Ranks() {
		t.Fatalf("world did not shrink: %s", reports[0].Plan)
	}
	// The sever was made — counted at the cut, once — and repaired.
	if snap := reg.Snapshot().Counters; snap["transport.severs"] != 1 || snap["transport.reconnects"] < 1 {
		t.Fatalf("injected sever: %d cuts, %d reconnects, want 1 and >= 1",
			snap["transport.severs"], snap["transport.reconnects"])
	}
	// Only the coordinator recorded supervise telemetry (followers are
	// silent), so restarts count once.
	if got := run.Shared().Counter("supervise.restarts").Value(); got != int64(reports[0].Restarts) {
		t.Fatalf("supervise.restarts = %d, want %d (followers must not double-count)",
			got, reports[0].Restarts)
	}
	if got := float32Bytes(sink.V.Data); !bytes.Equal(got, want) {
		t.Fatal("supervised socket recovery is not byte-identical to the fault-free volume")
	}
}
