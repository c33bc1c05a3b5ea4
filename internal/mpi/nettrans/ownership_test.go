package nettrans

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"distfdk/internal/alloctest"
	"distfdk/internal/fault"
	"distfdk/internal/mpi"
)

// TestVerdictOnWireBeforeHubReturns: on one P, the hub's epoch must not end
// with its verdict still queued behind a link writer. The hub's caller may
// block next (a coordinator reaping its worker processes does), and until
// the runtime takes the P back from that blocked thread every worker waits
// for a verdict that is not on the wire. Nothing is timed: when the hub's
// Run returns, each live link's writer cursor is past the verdict, which is
// the last frame the hub queued.
func TestVerdictOnWireBeforeHubReturns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const size = 3
	fl := newTestFleet(t, size, testConfig())
	assign, _ := AssignRanks(size, size, []int{0, 1, 2}, size)
	fn := func(c *mpi.Comm) error { return c.ReduceChunked(0, rankBuf(c.Rank(), 64), 64) }
	workers := make(chan error, size-1)
	for _, n := range fl.Nodes[1:] {
		go func(n *Node) { workers <- n.Run(size, assign, mpi.Options{}, fn) }(n)
	}
	if err := fl.Nodes[0].Run(size, assign, mpi.Options{}, fn); err != nil {
		t.Fatalf("hub: %v", err)
	}
	for p := 1; p < size; p++ {
		l := fl.Nodes[0].links[p]
		l.mu.Lock()
		sent, verdict := l.sentSeq, l.nextSeq
		l.mu.Unlock()
		if sent < verdict {
			t.Errorf("link to proc %d: the hub returned with its writer at frame %d, the verdict is frame %d", p, sent, verdict)
		}
	}
	for range fl.Nodes[1:] {
		if err := <-workers; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
}

// TestReplayResendsOwnedBuffers severs the link under a stream of sends
// while the sending process churns the arena's class of those sends. A sent
// buffer belongs to the link until the peer's ack: every buffer the churn
// draws must be out of the link's replay queue, and every payload the
// receiver gets, first copies and replays alike, must be the bytes sent.
func TestReplayResendsOwnedBuffers(t *testing.T) {
	const msgs, elems = 60, 9216
	inj := fault.NewInjector(7, fault.Rule{Op: fault.OpSever, Rank: 1, Nth: 20})
	cfg := testConfig()
	cfg.Injector = inj
	fl := newTestFleet(t, 2, cfg)
	sender := fl.Nodes[1].links[0]
	pending := func(s []float32) bool {
		sender.mu.Lock()
		defer sender.mu.Unlock()
		for _, it := range sender.pending {
			// The body as queued (its sealed wire part is a view of it); a
			// queued data frame without one gave it back before its ack.
			if unsafe.SliceData(it.f.data) == &s[0] || it.f.kind == kindData && it.f.data == nil {
				return true
			}
		}
		return false
	}
	pattern := func(m, i int) float32 { return float32(m*elems + i) }

	var mu sync.Mutex
	var early []string
	// A buffer released early is overwritten under its cached CRC, and its
	// replay fails the check forever: the deadline turns that into an error.
	errs := fl.Run(2, [][]int{{0}, {1}}, mpi.Options{Deadline: 10 * time.Second}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for m := 0; m < msgs; m++ {
				got, err := c.Recv(1, 5)
				if err != nil {
					return err
				}
				for i, x := range got {
					if x != pattern(m, i) {
						return fmt.Errorf("message %d element %d: got %v, sent %v", m, i, x, pattern(m, i))
					}
				}
				mpi.PutScratch(got)
			}
			return nil
		}
		for m := 0; m < msgs; m++ {
			buf := mpi.GetScratch(elems)
			for i := range buf {
				buf[i] = pattern(m, i)
			}
			if err := c.Send(0, 5, buf); err != nil {
				return err
			}
			for k := 0; k < 2; k++ {
				s := mpi.GetScratch(elems)
				if pending(s) {
					mu.Lock()
					early = append(early, fmt.Sprintf("after message %d", m))
					mu.Unlock()
				}
				for i := range s {
					s[i] = -1
				}
				defer mpi.PutScratch(s)
			}
		}
		return nil
	})
	if len(early) > 0 {
		t.Fatalf("the arena handed out a buffer its link still held: %v", early)
	}
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	if inj.Fired() != 1 {
		t.Fatalf("sever fired %d times, want 1", inj.Fired())
	}
}

// TestFrameRoundTripAllocs: with the arena warm, a data frame's round trip
// — sealed and written from the sender's floats, read into an arena buffer,
// delivered in place — costs at most the two frame structs, at a reduce
// chunk's size and at a slab's.
func TestFrameRoundTripAllocs(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	for _, elems := range []int{96 * 96, 2 << 20} {
		data := rankBuf(1, elems)
		var w bytes.Buffer
		run := func() {
			m, err := roundTrip(&w, data)
			if err != nil || len(m.Data) != elems || m.Data[elems-1] != data[elems-1] {
				t.Fatalf("%d floats: round trip %v", elems, err)
			}
			mpi.PutScratch(m.Data)
		}
		run() // warm the arena and the writer
		if got := testing.AllocsPerRun(20, run); got > 2 {
			t.Errorf("%d floats: %.1f allocations per round trip, want <= 2", elems, got)
		}
	}
}
