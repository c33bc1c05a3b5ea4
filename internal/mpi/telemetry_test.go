package mpi

import (
	"testing"

	"distfdk/internal/telemetry"
)

// The telemetry mirror sits beside the Stats updates and the handles are
// inherited through Split, so one rank's counter must equal the sum of its
// per-communicator Stats — the reconciliation the metrics artifact relies
// on.
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
		if err := c.Allreduce(buf); err != nil { // world traffic
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
		if want := worldStats[r].BytesSent + groupStats[r].BytesSent; s.Counters["mpi.bytes_sent"] != want {
			t.Errorf("rank %d: mpi.bytes_sent = %d, want world+group = %d", r, s.Counters["mpi.bytes_sent"], want)
		}
		if want := worldStats[r].BytesRecv + groupStats[r].BytesRecv; s.Counters["mpi.bytes_recv"] != want {
			t.Errorf("rank %d: mpi.bytes_recv = %d, want world+group = %d", r, s.Counters["mpi.bytes_recv"], want)
		}
		if want := worldStats[r].ReduceChunks + groupStats[r].ReduceChunks; s.Counters["mpi.reduce_chunks"] != want {
			t.Errorf("rank %d: mpi.reduce_chunks = %d, want %d", r, s.Counters["mpi.reduce_chunks"], want)
		}
		// Every counted message carries one latency observation.
		if want := worldStats[r].MessagesSent + groupStats[r].MessagesSent; s.Histograms["mpi.send_ns"].Count != want {
			t.Errorf("rank %d: send_ns observations = %d, want %d messages", r, s.Histograms["mpi.send_ns"].Count, want)
		}
		if want := worldStats[r].MessagesRecv + groupStats[r].MessagesRecv; s.Histograms["mpi.recv_ns"].Count != want {
			t.Errorf("rank %d: recv_ns observations = %d, want %d messages", r, s.Histograms["mpi.recv_ns"].Count, want)
		}
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
