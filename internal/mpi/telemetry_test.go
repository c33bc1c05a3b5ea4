package mpi

import (
	"testing"

	"distfdk/internal/telemetry"
)

// The latency histograms are observed beside the message counters and the
// handles are inherited through Split, so one rank's observation counts must
// equal the messages of its world and group Stats together.
func TestTelemetryReconcilesWithStats(t *testing.T) {
	const n = 4
	run := telemetry.NewRun(n)
	worldStats := make([]Stats, n)
	groupStats := make([]Stats, n)
	err := RunWith(n, Options{Telemetry: run}, func(c *Comm) error {
		group, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		buf := []float32{1, 2, 3, 4, 5, 6, 7, 8}
		if err := c.ReduceChunked(0, buf, len(buf)); err != nil { // world traffic
			return err
		}
		if err := group.ReduceChunked(0, buf, 3); err != nil { // group traffic
			return err
		}
		worldStats[c.Rank()] = c.Stats()
		groupStats[c.Rank()] = group.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range run.Snapshots() {
		if s.Rank == telemetry.SharedRank {
			continue
		}
		r := s.Rank
		// Every counted message carries one latency observation.
		if want := worldStats[r].MessagesSent + groupStats[r].MessagesSent; s.Histograms["mpi.send_ns"].Count != want {
			t.Errorf("rank %d: send_ns observations = %d, want %d messages", r, s.Histograms["mpi.send_ns"].Count, want)
		}
		if want := worldStats[r].MessagesRecv + groupStats[r].MessagesRecv; s.Histograms["mpi.recv_ns"].Count != want {
			t.Errorf("rank %d: recv_ns observations = %d, want %d messages", r, s.Histograms["mpi.recv_ns"].Count, want)
		}
	}
}

// Each endpoint's Stats is its own view and the rank registry is what they
// all add to: a Split child starts at zero whatever its parent has moved,
// and what it then moves lands in the parent's registry counters too.
func TestSplitChildCountsFromZeroIntoRankRegistry(t *testing.T) {
	const n = 2
	run := telemetry.NewRun(n)
	err := RunWith(n, Options{Telemetry: run}, func(c *Comm) error {
		buf := []float32{1, 2, 3, 4}
		// World traffic both ways on every rank: a pairwise exchange.
		if err := c.Send(1-c.Rank(), 1, []float32{1, 2, 3, 4}); err != nil {
			return err
		}
		if _, err := c.Recv(1-c.Rank(), 1); err != nil {
			return err
		}
		world := c.Stats()
		if world.BytesSent == 0 || world.BytesRecv == 0 {
			t.Errorf("rank %d: world exchange moved nothing: %+v", c.Rank(), world)
		}
		group, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if got := group.Stats(); got != (Stats{}) {
			t.Errorf("rank %d: fresh Split child already counts %+v", c.Rank(), got)
		}
		if c.Stats() != world {
			t.Errorf("rank %d: Split's formation exchange counted as traffic: %+v -> %+v", c.Rank(), world, c.Stats())
		}
		reg := run.Rank(c.Rank())
		before := reg.Counter("mpi.bytes_sent").Value() + reg.Counter("mpi.bytes_recv").Value()
		if err := group.ReduceChunked(0, buf, 3); err != nil {
			return err
		}
		gs := group.Stats()
		if gs.BytesSent+gs.BytesRecv == 0 {
			t.Errorf("rank %d: group reduce moved nothing", c.Rank())
		}
		after := reg.Counter("mpi.bytes_sent").Value() + reg.Counter("mpi.bytes_recv").Value()
		if after-before != gs.BytesSent+gs.BytesRecv {
			t.Errorf("rank %d: registry grew by %d over the group reduce, the group endpoint counted %d",
				c.Rank(), after-before, gs.BytesSent+gs.BytesRecv)
		}
		if got := reg.Counter("mpi.reduce_chunks").Value(); got != gs.ReduceChunks {
			t.Errorf("rank %d: mpi.reduce_chunks = %d, the only chunked reduce forwarded %d", c.Rank(), got, gs.ReduceChunks)
		}
		if c.Stats() != world {
			t.Errorf("rank %d: group traffic leaked into the world endpoint's view", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A world launched without telemetry must keep handing out nil-telemetry
// comms: the fast path stays one pointer check and records nothing.
func TestTelemetryDisabled(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.tm != nil {
			return &RankLostError{} // any error: fail the world
		}
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if sub.tm != nil {
			return &RankLostError{}
		}
		if c.Rank() == 0 {
			return c.Send(1, 1, []float32{1})
		}
		_, err = c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatalf("telemetry-off world must run clean: %v", err)
	}
}
