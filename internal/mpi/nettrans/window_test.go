package nettrans

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"distfdk/internal/alloctest"
	"distfdk/internal/mpi"
	"distfdk/internal/telemetry"
)

// TestSendWindowReleasesPromptly streams reduce-chunk-sized messages to a
// receiver that drains them. The credit a pop returns carries the
// receiver's ack, so the sender's link holds no more data frames than the
// window lets it send — not the ackEvery frames or the heartbeat interval's
// worth it would hold if only those released them — and the arena serves
// the whole stream from a window's worth of buffers.
func TestSendWindowReleasesPromptly(t *testing.T) {
	const msgs, elems = 240, 9216 // 36 KiB each
	cfg := testConfig()
	cfg.Heartbeat, cfg.DeathAfter = time.Second, 10*time.Second // no heartbeat ack mid-stream
	fl := newTestFleet(t, 2, cfg)
	sender := fl.Nodes[1].links[0]
	unacked := func() (n int) {
		sender.mu.Lock()
		defer sender.mu.Unlock()
		for _, it := range sender.pending {
			if it.f.kind == kindData {
				n++
			}
		}
		return n
	}
	// No collection may empty the arena's pools mid-stream.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	most := 0
	var errs []error
	allocated := alloctest.AllocatedBy(func() {
		errs = fl.Run(2, [][]int{{0}, {1}}, mpi.Options{Deadline: 10 * time.Second}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for m := 0; m < msgs; m++ {
					got, err := c.Recv(1, 5)
					if err != nil {
						return err
					}
					if len(got) != elems || got[elems-1] != float32(m) {
						return fmt.Errorf("message %d: %d floats ending %v", m, len(got), got[len(got)-1])
					}
					mpi.PutScratch(got)
				}
				return nil
			}
			for m := 0; m < msgs; m++ {
				buf := mpi.GetScratch(elems)
				buf[elems-1] = float32(m)
				if err := c.Send(0, 5, buf); err != nil {
					return err
				}
				most = max(most, unacked())
			}
			return nil
		})
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	// A message's buffer is the arena class that holds it, headroom included.
	bufBytes := uint64(4 * (cap(mpi.GetScratch(elems)) - mpi.ScratchHeadroom))
	t.Logf("at most %d unacked data frames; the stream allocated %d bytes, %.1f message buffers",
		most, allocated, float64(allocated)/float64(bufBytes))
	if most > mpi.SendWindow+1 {
		t.Errorf("the sender's link held %d unacked data frames, window %d", most, mpi.SendWindow)
	}
	// What the stream borrows at once is the sender's window, the
	// receiver's inbox and the frames between them: a few windows' worth,
	// where a stream the arena did not serve allocates two buffers a
	// message. Under the race detector sync.Pool drops buffers at random.
	if !alloctest.Race && allocated > 5*mpi.SendWindow*bufBytes {
		t.Errorf("%d messages allocated %d bytes, %d buffers of %d bytes at window %d",
			msgs, allocated, allocated/bufBytes, bufBytes, mpi.SendWindow)
	}
}

// TestForgedCreditsCannotWidenWindow: a credit frame only frees a slot a
// sent message holds. Surplus credits for the sender's own window free
// nothing; credits naming a rank outside the world or another epoch are
// dropped and counted as stale. After all of them the sender still gets
// exactly mpi.SendWindow messages past a receiver that does not drain.
func TestForgedCreditsCannotWidenWindow(t *testing.T) {
	const deadline = 100 * time.Millisecond
	cfg := testConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	fl := newTestFleet(t, 2, cfg)
	worker := fl.Nodes[1]
	done := make(chan struct{})
	errs := fl.Run(2, [][]int{{0}, {1}}, mpi.Options{Deadline: deadline}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			<-done
			return nil
		}
		defer close(done)
		epoch := worker.curWorld().epoch
		forge := func(src, dst int32, epoch int) {
			worker.handleFrame(0, &frame{kind: kindCredit, src: src, dst: dst, tag: int32(epoch)})
		}
		for i := 0; i < 2*mpi.SendWindow; i++ {
			forge(0, 1, epoch)
		}
		stale := worker.st.staleDrops.Value()
		forge(2, 1, epoch)
		forge(0, -1, epoch)
		forge(0, 1, epoch+1)
		forge(0, 1, epoch-1)
		if got := worker.st.staleDrops.Value() - stale; got != 4 {
			return fmt.Errorf("4 credits outside the world or the epoch, %d counted stale", got)
		}
		for i := 0; ; i++ {
			err := c.Send(0, 1, []float32{0})
			if err == nil {
				continue
			}
			if !errors.Is(err, mpi.ErrRankLost) {
				return fmt.Errorf("send %d: %v, want ErrRankLost", i+1, err)
			}
			if i != mpi.SendWindow {
				return fmt.Errorf("%d sends passed a receiver that does not drain, window %d", i, mpi.SendWindow)
			}
			return nil
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}
