package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A rank that never sends must surface as a typed ErrRankLost at the
// receiver within roughly the deadline — not as a hang.
func TestRecvDeadlineSurfacesRankLost(t *testing.T) {
	const deadline = 50 * time.Millisecond
	start := time.Now()
	err := RunWith(2, Options{Deadline: deadline}, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // dies silently without sending
		}
		_, err := c.Recv(1, 7)
		return err
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrRankLost) {
		t.Fatalf("expected ErrRankLost, got %v", err)
	}
	var rl *RankLostError
	if !errors.As(err, &rl) || rl.Peer != 1 || rl.Op != "recv" || rl.Wait != deadline {
		t.Fatalf("lost-rank coordinates wrong: %+v", rl)
	}
	if elapsed > 20*deadline {
		t.Fatalf("teardown took %v, deadline was %v", elapsed, deadline)
	}
}

// A rank returning an error mid-run must wake every peer blocked in a
// collective — with no deadline configured at all.
func TestWorldTeardownWakesBlockedCollectives(t *testing.T) {
	boom := errors.New("node imploded")
	done := make(chan error, 1)
	go func() {
		done <- Run(4, func(c *Comm) error {
			if c.Rank() == 2 {
				return boom // dies before entering the collective
			}
			buf := make([]float32, 64)
			return c.ReduceChunked(0, buf, len(buf)) // would deadlock without teardown
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("joined error misses the root cause: %v", err)
		}
		if !errors.Is(err, ErrRankLost) {
			t.Fatalf("joined error misses the peers' rank-loss: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("world did not tear down")
	}
}

// Teardown must also wake ranks waiting inside Split — the one collective
// that does not go through Send/Recv.
func TestWorldTeardownWakesSplit(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(3, func(c *Comm) error {
			if c.Rank() == 0 {
				return errors.New("lost before split")
			}
			_, err := c.Split(0, c.Rank())
			return err
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankLost) {
			t.Fatalf("expected rank-loss from Split, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("split did not tear down")
	}
}

// Deadline and interceptor settings must survive Split: collectives on the
// sub-communicator still time out on a lost peer.
func TestSplitInheritsDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	err := RunWith(4, Options{Deadline: deadline}, func(c *Comm) error {
		sub, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			return nil // dies: its sub-communicator peer (rank 2) is stranded
		}
		if c.Rank() == 2 {
			_, err := sub.Recv(1, 9)
			if !errors.Is(err, ErrRankLost) {
				return fmt.Errorf("sub-comm recv got %v, want ErrRankLost", err)
			}
			return nil
		}
		// Ranks 0 and 1 exchange normally on their sub-communicator.
		if sub.Rank() == 0 {
			_, err := sub.Recv(1, 5)
			return err
		}
		return sub.Send(0, 5, []float32{1})
	})
	if err != nil {
		t.Fatalf("unexpected world error: %v", err)
	}
}

type countingIcept struct {
	sends, recvs atomic.Int64
	failSendFrom int32 // rank whose sends all fail; -1 disables
}

func (ci *countingIcept) BeforeSend(rank, dst, tag int) error {
	ci.sends.Add(1)
	if int32(rank) == ci.failSendFrom {
		return errors.New("icept: send blackholed")
	}
	return nil
}

func (ci *countingIcept) BeforeRecv(rank, src, tag int) error {
	ci.recvs.Add(1)
	return nil
}

// The interceptor sees every point-to-point operation and its error aborts
// the op before data moves.
func TestInterceptorObservesAndInjects(t *testing.T) {
	ci := &countingIcept{failSendFrom: -1}
	err := RunWith(2, Options{Interceptor: ci}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, []float32{1, 2})
		}
		_, err := c.Recv(0, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ci.sends.Load() != 1 || ci.recvs.Load() != 1 {
		t.Fatalf("interceptor saw %d sends, %d recvs; want 1, 1", ci.sends.Load(), ci.recvs.Load())
	}

	ci = &countingIcept{failSendFrom: 0}
	err = RunWith(2, Options{Deadline: 50 * time.Millisecond, Interceptor: ci}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 3, []float32{1}); err == nil {
				return errors.New("interceptor error did not abort the send")
			}
			return errors.New("send blackholed as requested")
		}
		_, err := c.Recv(0, 3)
		return err
	})
	if err == nil || !errors.Is(err, ErrRankLost) {
		t.Fatalf("blackholed send must strand the receiver into ErrRankLost, got %v", err)
	}
}

// After any teardown, the world's goroutines are gone: mpi.Run leaks
// nothing even when ranks die at random points.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := 0; seed < 5; seed++ {
		_ = RunWith(6, Options{Deadline: 50 * time.Millisecond}, func(c *Comm) error {
			if c.Rank() == seed%6 {
				return fmt.Errorf("rank %d dies (seed %d)", c.Rank(), seed)
			}
			buf := make([]float32, 32)
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.ReduceChunked(0, buf, 8)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
}
