package mpi

import (
	"testing"

	"distfdk/internal/telemetry"
)

// matchFlows indexes every send-side flow record by message id across the
// snapshots and counts how many recv-side records found their sender.
func matchFlows(snaps []telemetry.Snapshot) (sendByID map[int64]telemetry.FlowRecord, stats telemetry.FlowStats) {
	sendByID = map[int64]telemetry.FlowRecord{}
	for _, s := range snaps {
		for _, f := range s.Flows {
			if f.Kind == telemetry.FlowSend && f.MsgID > 0 {
				sendByID[f.MsgID] = f
				stats.Sends++
			}
		}
	}
	for _, s := range snaps {
		for _, f := range s.Flows {
			if f.Kind == telemetry.FlowRecv {
				stats.Recvs++
				if _, ok := sendByID[f.MsgID]; ok && f.MsgID > 0 {
					stats.Matched++
				}
			}
		}
	}
	return sendByID, stats
}

// Every telemetered Send/Recv must leave a pair of flow records that
// match by a unique positive message id, with Src/Dst expressed as WORLD
// ranks even when the traffic moved over a Split sub-communicator — the
// contract the trace arrows and the critical-path walk rely on.
func TestFlowRecordsMatchAcrossSplit(t *testing.T) {
	const n = 4
	run := telemetry.NewRun(n)
	err := RunWith(n, Options{Telemetry: run}, func(c *Comm) error {
		// World traffic: a ring shift on tag 5.
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		if err := c.Send(next, 5, []float32{float32(c.Rank())}); err != nil {
			return err
		}
		if _, err := c.Recv(prev, 5); err != nil {
			return err
		}
		// Group traffic: split even/odd world ranks, reduce inside each.
		group, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		return group.ReduceChunked(0, []float32{1, 2, 3, 4}, 2)
	})
	if err != nil {
		t.Fatal(err)
	}

	snaps := run.Snapshots()
	sendByID, stats := matchFlows(snaps)
	if stats.Sends == 0 || stats.Recvs == 0 {
		t.Fatalf("no flows recorded: %+v", stats)
	}
	if stats.Matched != stats.Recvs {
		t.Fatalf("%d of %d recvs unmatched (%+v)", stats.Recvs-stats.Matched, stats.Recvs, stats)
	}
	if len(sendByID) != stats.Sends {
		t.Fatalf("%d sends share an id: %d ids for %d sends", stats.Sends-len(sendByID), len(sendByID), stats.Sends)
	}

	for _, s := range snaps {
		for _, f := range s.Flows {
			if f.MsgID <= 0 {
				t.Errorf("rank %d: non-positive msg id %d", s.Rank, f.MsgID)
			}
			if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
				t.Errorf("rank %d: flow carries non-world ranks %d→%d", s.Rank, f.Src, f.Dst)
			}
			if f.Bytes <= 0 {
				t.Errorf("rank %d: flow msg %d carries %d bytes", s.Rank, f.MsgID, f.Bytes)
			}
			if f.End < f.Start {
				t.Errorf("rank %d: flow msg %d window inverted [%v,%v]", s.Rank, f.MsgID, f.Start, f.End)
			}
			// A record always lives on the registry of the rank that performed
			// the operation.
			if f.Kind == telemetry.FlowSend && f.Src != s.Rank {
				t.Errorf("send recorded on rank %d but Src = %d", s.Rank, f.Src)
			}
			if f.Kind == telemetry.FlowRecv && f.Dst != s.Rank {
				t.Errorf("recv recorded on rank %d but Dst = %d", s.Rank, f.Dst)
			}
			// Matched pairs agree on the endpoint metadata.
			if f.Kind == telemetry.FlowRecv {
				snd, ok := sendByID[f.MsgID]
				if !ok {
					continue
				}
				if snd.Src != f.Src || snd.Dst != f.Dst || snd.Tag != f.Tag || snd.Bytes != f.Bytes {
					t.Errorf("msg %d: send %+v disagrees with recv %+v", f.MsgID, snd, f)
				}
			}
		}
	}

	// The even group's reduce root is world rank 0 and the odd group's is
	// world rank 1: group traffic must show up addressed to those world
	// ranks, proving Split threads the world mapping through.
	rootRecvs := map[int]bool{}
	for _, s := range snaps {
		for _, f := range s.Flows {
			if f.Kind == telemetry.FlowRecv && f.Tag < 0 {
				rootRecvs[f.Dst] = true
			}
		}
	}
	if !rootRecvs[0] || !rootRecvs[1] {
		t.Errorf("group collective recvs landed on %v, want world ranks 0 and 1", rootRecvs)
	}
}

// Message ids survive a Run reuse (supervised relaunch): a second world
// on the same Run must continue the counter, never reissue ids.
func TestFlowMsgIDsMonotoneAcrossWorlds(t *testing.T) {
	run := telemetry.NewRun(2)
	ping := func() error {
		return RunWith(2, Options{Telemetry: run}, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 9, []float32{1})
			}
			_, err := c.Recv(0, 9)
			return err
		})
	}
	if err := ping(); err != nil {
		t.Fatal(err)
	}
	maxAfterFirst := maxMsgID(run)
	if maxAfterFirst == 0 {
		t.Fatal("first world recorded no flows")
	}
	if err := ping(); err != nil {
		t.Fatal(err)
	}
	_, stats := matchFlows(run.Snapshots())
	if stats.Matched != stats.Recvs {
		t.Fatalf("relaunch broke pairing: %+v", stats)
	}
	if maxMsgID(run) <= maxAfterFirst {
		t.Errorf("msg ids did not advance across worlds: %d then %d", maxAfterFirst, maxMsgID(run))
	}
	// Uniqueness across both worlds combined.
	seen := map[int64]bool{}
	for _, s := range run.Snapshots() {
		for _, f := range s.Flows {
			if f.Kind != telemetry.FlowSend {
				continue
			}
			if seen[f.MsgID] {
				t.Errorf("msg id %d reissued in the second world", f.MsgID)
			}
			seen[f.MsgID] = true
		}
	}
}

func maxMsgID(run *telemetry.Run) int64 {
	var id int64
	for _, s := range run.Snapshots() {
		for _, f := range s.Flows {
			if f.MsgID > id {
				id = f.MsgID
			}
		}
	}
	return id
}
