package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTransportSplitWire exercises Split's message exchange: group
// formation, rank order by (key, parent rank), repeated splits, and that
// group traffic stays isolated per communicator.
func TestTransportSplitWire(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	sums := map[int]float32{}
	err := RunWith(n, Options{}, func(c *Comm) error {
		color := c.Rank() / 2
		// Reverse key order inside each group: parent ranks (0,1) map to
		// group ranks (1,0).
		g, err := c.Split(color, -c.Rank())
		if err != nil {
			return err
		}
		if g.Size() != 2 {
			return fmt.Errorf("rank %d: group size %d", c.Rank(), g.Size())
		}
		wantRank := 1 - c.Rank()%2
		if g.Rank() != wantRank {
			return fmt.Errorf("rank %d: group rank %d, want %d", c.Rank(), g.Rank(), wantRank)
		}
		buf := []float32{float32(c.Rank() + 1)}
		if err := g.ReduceChunked(0, buf, len(buf)); err != nil {
			return err
		}
		if g.Rank() == 0 {
			mu.Lock()
			sums[color] = buf[0]
			mu.Unlock()
		}
		// A second split from the same parent must not collide with the
		// first (sequence numbers separate the collectives).
		g2, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if g2.Size() != n {
			return fmt.Errorf("rank %d: second split size %d", c.Rank(), g2.Size())
		}
		return g2.Barrier()
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if sums[0] != 3 || sums[1] != 7 {
		t.Fatalf("group sums = %v, want {0:3, 1:7}", sums)
	}
}

// TestTransportTeardownAttributes checks the teardown contract on the
// transport's cancel path: a failing rank is the culprit, blocked
// peers wake with a RankLostError naming it, and LostRanks on the joined
// error yields exactly that rank.
func TestTransportTeardownAttributes(t *testing.T) {
	boom := errors.New("boom")
	err := RunWith(3, Options{}, func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		// Ranks 0 and 1 block on a message rank 2 never sends.
		_, rerr := c.Recv(2, 9)
		return rerr
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("culprit error missing: %v", err)
	}
	if !errors.Is(err, ErrRankLost) {
		t.Fatalf("no ErrRankLost in %v", err)
	}
	if got := LostRanks(err); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("LostRanks = %v, want [2]", got)
	}
}

// stubWorldTransport wraps the in-process transport to script the lifecycle hooks.
type stubWorldTransport struct {
	*localTransport
	lostCh     chan []int
	verdict    []int
	verdictErr error

	mu         sync.Mutex
	localLost  [][]int
	finishErrs []error
}

func (s *stubWorldTransport) PeerLost() <-chan []int { return s.lostCh }
func (s *stubWorldTransport) LocalLost(ranks []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.localLost = append(s.localLost, append([]int(nil), ranks...))
}
func (s *stubWorldTransport) Finish(localErr error) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishErrs = append(s.finishErrs, localErr)
	return s.verdict, s.verdictErr
}

// TestTransportPeerLossTripsTeardown: the transport declaring a remote
// rank dead must wake blocked operations with that attribution, exactly
// like a local failure would.
func TestTransportPeerLossTripsTeardown(t *testing.T) {
	tr := &stubWorldTransport{localTransport: newLocalTransport(), lostCh: make(chan []int, 1)}
	// World of 3 with only ranks 0 and 1 local; rank 2 "lives elsewhere"
	// and dies without ever speaking.
	done := make(chan error, 1)
	go func() {
		done <- RunTransport(TransportWorld{Size: 3, Local: []int{0, 1}, Transport: tr}, Options{},
			func(c *Comm) error {
				if c.Rank() == 1 {
					return nil
				}
				_, err := c.Recv(2, 4)
				return err
			})
	}()
	time.Sleep(10 * time.Millisecond)
	tr.lostCh <- []int{2}
	err := <-done
	if !errors.Is(err, ErrRankLost) {
		t.Fatalf("want ErrRankLost, got %v", err)
	}
	if got := LostRanks(err); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("LostRanks = %v, want [2]", got)
	}
}

// TestTransportWorldVerdictFoldsLost: ranks lost in OTHER processes (the
// verdict exchange's union) must appear in this process's error even when
// every local rank finished clean — that is what keeps supervisors in
// different processes shrinking identically.
func TestTransportWorldVerdictFoldsLost(t *testing.T) {
	tr := &stubWorldTransport{localTransport: newLocalTransport(), verdict: []int{5, 5, 3}}
	err := RunTransport(TransportWorld{Size: 8, Local: []int{0}, Transport: tr}, Options{},
		func(c *Comm) error { return nil })
	if err == nil {
		t.Fatal("want world-lost error")
	}
	if got := LostRanks(err); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("LostRanks = %v, want [3 5]", got)
	}
}

// TestTransportLocalCulpritAnnounced: a local failure must be announced
// through the transport (for remote teardown) before the world returns.
func TestTransportLocalCulpritAnnounced(t *testing.T) {
	tr := &stubWorldTransport{localTransport: newLocalTransport()}
	boom := errors.New("boom")
	err := RunTransport(TransportWorld{Size: 4, Local: []int{0, 1}, Transport: tr}, Options{},
		func(c *Comm) error {
			if c.Rank() == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !reflect.DeepEqual(tr.localLost, [][]int{{1}}) {
		t.Fatalf("LocalLost calls = %v, want [[1]]", tr.localLost)
	}
	if len(tr.finishErrs) != 1 || !errors.Is(tr.finishErrs[0], boom) {
		t.Fatalf("Finish not handed the local error: %v", tr.finishErrs)
	}
}

// TestLostRanksDedupAcrossPaths is the regression test for attribution
// dedup: one rank observed lost on both the send path and the
// heartbeat/verdict path — including duplicate entries inside a single
// Lost slice — must be counted once, in sorted order.
func TestLostRanksDedupAcrossPaths(t *testing.T) {
	sendPath := fmt.Errorf("attempt 2: %w",
		&RankLostError{Rank: 0, Peer: 3, Op: "send", Lost: []int{3}})
	heartbeat := &RankLostError{Rank: -1, Peer: -1, Op: "world", Lost: []int{3, 3, 1}}
	joined := errors.Join(sendPath, heartbeat, fmt.Errorf("wrapped: %w", errors.Join(heartbeat)))
	if got := LostRanks(joined); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("LostRanks = %v, want [1 3]", got)
	}
	if got := uniqueSorted([]int{7, 7, 2, 7, 2}); !reflect.DeepEqual(got, []int{2, 7}) {
		t.Fatalf("uniqueSorted = %v, want [2 7]", got)
	}
	if got := uniqueSorted(nil); got != nil {
		t.Fatalf("uniqueSorted(nil) = %v, want nil", got)
	}
}

// TestTransportDeadline: a transport recv against a silent peer must
// surface the endpoint deadline as a RankLostError with Wait set and no
// loss attribution (the peer may be slow, not dead).
func TestTransportDeadline(t *testing.T) {
	err := RunWith(2, Options{Deadline: 20 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := c.Recv(0, 1)
			return err
		}
		return nil
	})
	var rle *RankLostError
	if !errors.As(err, &rle) {
		t.Fatalf("want RankLostError, got %v", err)
	}
	if rle.Wait == 0 || len(rle.Lost) != 0 {
		t.Fatalf("deadline expiry misattributed: %+v", rle)
	}
}
