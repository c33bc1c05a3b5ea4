package nettrans

import (
	"fmt"
	"sync"
	"time"

	"distfdk/internal/mpi"
)

// inbox is one (comm, src, dst) channel of the world: in the process
// hosting dst, the queue the link reader delivers into; in the process
// hosting src, the send window. The queue is a slice so the reader never
// blocks on delivery (a stalled reader would stall acks and heartbeats and
// fake a peer death); it is bounded all the same, because src holds at
// most mpi.SendWindow messages in flight and dst returns a credit for each
// message it pops.
type inbox struct {
	mu  sync.Mutex
	q   []mpi.Message
	sig chan struct{} // capacity 1: set when q may be non-empty
	// inflight holds a token per message src sent and dst has not popped.
	inflight chan struct{}
}

func newInbox() *inbox {
	return &inbox{sig: make(chan struct{}, 1), inflight: make(chan struct{}, mpi.SendWindow)}
}

func (b *inbox) push(m mpi.Message) {
	b.mu.Lock()
	b.q = append(b.q, m)
	b.mu.Unlock()
	b.signal()
}

func (b *inbox) signal() {
	select {
	case b.sig <- struct{}{}:
	default:
	}
}

// pop takes the next message, honouring the transport deadline/cancel
// contract (final non-blocking attempt after either fires, so a message
// that raced in is delivered, not dropped).
func (b *inbox) pop(deadline time.Duration, cancel <-chan struct{}) (mpi.Message, error) {
	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	var failErr error
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			m := b.q[0]
			b.q = b.q[1:]
			if len(b.q) > 0 {
				b.signal()
			}
			b.mu.Unlock()
			return m, nil
		}
		b.mu.Unlock()
		if failErr != nil {
			return mpi.Message{}, failErr
		}
		select {
		case <-b.sig:
		case <-cancel:
			failErr = mpi.ErrTransportCanceled
		case <-timeout:
			failErr = mpi.ErrTransportTimeout
		}
	}
}

// take claims a slot of the send window, honouring the transport
// deadline/cancel contract as pop does.
func (b *inbox) take(deadline time.Duration, cancel <-chan struct{}) error {
	select {
	case b.inflight <- struct{}{}:
		return nil
	default:
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	err := mpi.ErrTransportCanceled
	select {
	case b.inflight <- struct{}{}:
		return nil
	case <-cancel:
	case <-timeout:
		err = mpi.ErrTransportTimeout
	}
	select {
	case b.inflight <- struct{}{}:
		return nil
	default:
		return err
	}
}

// credit frees a slot of the send window. It never blocks, and a credit
// with no message in flight (forged, or from a confused peer) frees
// nothing, so the window never exceeds mpi.SendWindow.
func (b *inbox) credit() {
	select {
	case <-b.inflight:
	default:
	}
}

type boxKey struct {
	comm     int32
	src, dst int32
}

// World is one epoch's view of the multi-process world: it implements
// mpi.WorldTransport over the node's links. Local messages short-circuit
// through in-memory inboxes (passed by reference, as in the in-process
// world); remote ones ride data frames, via the hub when neither endpoint
// is local to it. Either way a send takes a slot of its (comm, src, dst)
// window and the receive that pops the message gives it back.
type World struct {
	n        *Node
	epoch    int
	size     int
	rankProc []int
	local    map[int]bool

	boxMu sync.Mutex
	boxes map[boxKey]*inbox

	lostMu   sync.Mutex
	lostSeen map[int]bool
	lostCh   chan []int
}

func (n *Node) newWorld(epoch, size int, assign [][]int) (*World, error) {
	w := &World{n: n, epoch: epoch, size: size,
		rankProc: make([]int, size), local: map[int]bool{},
		boxes:    map[boxKey]*inbox{},
		lostSeen: map[int]bool{},
		lostCh:   make(chan []int, 4*size+16),
	}
	for r := range w.rankProc {
		w.rankProc[r] = -1
	}
	for p, ranks := range assign {
		for _, r := range ranks {
			if r < 0 || r >= size {
				return nil, fmt.Errorf("nettrans: assigned rank %d outside world of %d", r, size)
			}
			if w.rankProc[r] != -1 {
				return nil, fmt.Errorf("nettrans: rank %d assigned to procs %d and %d", r, w.rankProc[r], p)
			}
			w.rankProc[r] = p
			if p == n.cfg.Proc {
				w.local[r] = true
			}
		}
	}
	for r, p := range w.rankProc {
		if p == -1 {
			return nil, fmt.Errorf("nettrans: rank %d unassigned", r)
		}
	}
	return w, nil
}

func (w *World) box(comm, src, dst int32) *inbox {
	k := boxKey{comm, src, dst}
	w.boxMu.Lock()
	defer w.boxMu.Unlock()
	b, ok := w.boxes[k]
	if !ok {
		b = newInbox()
		w.boxes[k] = b
	}
	return b
}

// Send implements mpi.Transport. It first takes a slot of the (comm, src,
// dst) window, blocking while mpi.SendWindow messages are in flight, as the
// in-process world's buffered channel does.
func (w *World) Send(comm int32, src, dst int, m mpi.Message, deadline time.Duration, cancel <-chan struct{}) error {
	b := w.box(comm, int32(src), int32(dst))
	if w.local[dst] {
		// Same-process fast path: the slice moves by reference, as in the
		// in-process world.
		if err := b.take(deadline, cancel); err != nil {
			return err
		}
		b.push(m)
		return nil
	}
	if lost := w.deadPeers(dst); lost != nil {
		return &mpi.PeerLostError{Lost: lost}
	}
	n := payloadLen(m.Data, m.Ctl)
	if headerBytes+n > maxFrameBytes {
		return fmt.Errorf("%w: message body of %d bytes", errTooLarge, headerBytes+n)
	}
	if err := b.take(deadline, cancel); err != nil {
		return err
	}
	// No copy: a float32 body goes on the wire from the caller's slice,
	// which the link returns to the arena when the peer acks the frame.
	f := &frame{kind: kindData, comm: comm, src: int32(src), dst: int32(dst),
		tag: int32(m.Tag), msgID: m.ID, data: m.Data}
	if m.Data == nil {
		f.wire = appendPayload(newWire(n), nil, m.Ctl)
	}
	if !w.n.route(w, f, true) {
		return &mpi.PeerLostError{Lost: w.procRanks(w.rankProc[dst])}
	}
	return nil
}

// Recv implements mpi.Transport. Popping a message returns its sender's
// credit: in place when the sender is local, else in a credit frame to the
// sender's process, whose ack releases the frames the message rode in.
func (w *World) Recv(comm int32, src, dst int, deadline time.Duration, cancel <-chan struct{}) (mpi.Message, error) {
	b := w.box(comm, int32(src), int32(dst))
	m, err := b.pop(deadline, cancel)
	if err != nil {
		return m, err
	}
	if w.local[src] {
		b.credit()
	} else {
		// A dead path needs no credit: its sender is lost with it.
		w.n.route(w, &frame{kind: kindCredit, comm: comm, src: int32(dst), dst: int32(src),
			tag: int32(w.epoch)}, true)
	}
	return m, nil
}

// deadPeers returns the loss attribution when dst (or the path to it) is
// already known dead, nil otherwise.
func (w *World) deadPeers(dst int) []int {
	w.lostMu.Lock()
	dead := w.lostSeen[dst]
	w.lostMu.Unlock()
	if dead {
		return []int{dst}
	}
	p := w.rankProc[dst]
	if w.n.procIsDead(p) {
		return w.procRanks(p)
	}
	return nil
}

// procRanks lists this world's ranks hosted by proc p, ascending; p == -1
// lists those hosted by every other process than this one.
func (w *World) procRanks(p int) []int {
	var out []int
	for r, rp := range w.rankProc {
		if rp == p || p == -1 && rp != w.n.cfg.Proc {
			out = append(out, r)
		}
	}
	return out
}

// noteLost records newly dead ranks and wakes the RunTransport watcher.
// remote reports (heartbeat/kindLost) and local culprits both land here;
// the dedup keeps each rank's attribution single-shot.
func (w *World) noteLost(ranks []int, deliver bool) []int {
	w.lostMu.Lock()
	var fresh []int
	for _, r := range ranks {
		if !w.lostSeen[r] {
			w.lostSeen[r] = true
			fresh = append(fresh, r)
		}
	}
	w.lostMu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	if deliver {
		select {
		case w.lostCh <- fresh:
		default: // capacity is generous; worst case the teardown already fired
		}
	}
	return fresh
}

// knownLost snapshots every rank this world has seen die.
func (w *World) knownLost() []int {
	w.lostMu.Lock()
	defer w.lostMu.Unlock()
	out := make([]int, 0, len(w.lostSeen))
	for r := range w.lostSeen {
		out = append(out, r)
	}
	return out
}

// PeerLost implements mpi.WorldTransport.
func (w *World) PeerLost() <-chan []int { return w.lostCh }

// LocalLost implements mpi.WorldTransport: a culprit on this process is
// recorded (not re-delivered locally — the local teardown is already in
// progress) and broadcast so remote processes tear down with the name.
func (w *World) LocalLost(ranks []int) {
	fresh := w.noteLost(ranks, false)
	if len(fresh) == 0 {
		return
	}
	w.n.broadcastLost(w, fresh, -1)
}

// Finish implements mpi.WorldTransport: the end-of-attempt verdict
// exchange (see node.go).
func (w *World) Finish(localErr error) ([]int, error) {
	return w.n.finishEpoch(w, localErr)
}
