package nettrans

import (
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"distfdk/internal/telemetry"
)

// socketPair returns the two ends of one loopback connection: dialled and
// accepted.
func socketPair(t *testing.T) (dialled, accepted *os.File) {
	t.Helper()
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialled, err = dialTCP(ln.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		dialled.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { dialled.Close(); accepted.Close() })
	return dialled, accepted
}

// writeCounter is a link's connection that counts the writes made on it.
type writeCounter struct {
	*os.File
	writes atomic.Int64
}

func (c *writeCounter) SyscallConn() (syscall.RawConn, error) {
	rc, err := c.File.SyscallConn()
	return countedRaw{rc, &c.writes}, err
}

type countedRaw struct {
	syscall.RawConn
	writes *atomic.Int64
}

func (r countedRaw) Write(f func(uintptr) bool) error {
	r.writes.Add(1)
	return r.RawConn.Write(f)
}

// The link's writer takes every frame queued behind it and sends the run in
// one writev: 64 frames queued while a write is in progress leave in two
// writes, not 64, arrive in order, and count as 64 frames sent.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	reg := telemetry.NewRegistry()
	n, err := NewNode(Config{Addr: "127.0.0.1:0", Proc: 0, Procs: 2,
		Heartbeat: time.Hour, DeathAfter: 3 * time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ours, peer := socketPair(t)
	c := &writeCounter{File: ours}
	l := n.links[1]
	l.engage()
	l.attach(c, 0)

	const frames = 64
	l.wmu.Lock() // the writer's first write waits here while the rest queue
	for i := 0; i < frames; i++ {
		if !l.enqueue(&frame{kind: kindReport, payload: encodeInts(1, i)}, false) {
			t.Fatal("enqueue refused on a live link")
		}
	}
	l.wmu.Unlock()

	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < frames; i++ {
		f, err := readFrame(peer)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ints, _ := decodeInts(f.payload); f.seq != uint64(i+1) || len(ints) != 2 || ints[1] != i {
			t.Fatalf("frame %d arrived as seq %d carrying %v", i, f.seq, ints)
		}
	}
	if w := c.writes.Load(); w > 2 {
		t.Errorf("%d queued frames took %d writes, want at most 2", frames, w)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		sent := reg.Snapshot().Counters["transport.frames_sent"]
		if sent == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport.frames_sent = %d after %d frames", sent, frames)
		}
	}
}
