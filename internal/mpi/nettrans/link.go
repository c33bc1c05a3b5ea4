package nettrans

import (
	"bufio"
	"io"
	"slices"
	"sync"
	"syscall"
	"time"

	"distfdk/internal/fault"
)

// wireItem is one reliable frame queued on a link: the frame (sealed on
// first write, resent verbatim on replay) and its write count (for the
// retransmit counter). chaos marks frames originated by this process's
// ranks — only those pass the wire fault layer, so injected schedules
// count occurrences in program send order however many hops a frame takes.
// An ack covering the frame the writer holds (writing) sets acked; the
// writer then releases it.
type wireItem struct {
	f              *frame
	writes         int
	chaos          bool
	writing, acked bool
}

// conn is the stream a link runs on: a socket of sock_unix.go, an *os.File,
// in a running world; a test may pass a *net.TCPConn, which has the same
// methods.
type conn interface {
	io.ReadWriteCloser
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
	SyscallConn() (syscall.RawConn, error)
}

// link is one reliable, reconnectable stream between this process and a
// peer process (workers hold exactly one, to the hub; the hub holds one
// per worker). Reliable frames get link-scoped sequence numbers and are
// retained until the peer's cumulative ack covers them; a reconnect
// replays everything unacked, and the receive side dedups by sequence
// number — so connection churn (or injected wire chaos) never loses,
// duplicates or reorders what the mpi layer observes.
type link struct {
	n    *Node
	proc int // peer proc id

	mu        sync.Mutex
	conn      conn
	gen       int  // connection generation, guards stale reader callbacks
	engaged   bool // true once the link has ever been wanted (death windows apply)
	down      bool
	downSince time.Time
	dead      bool
	everUp    bool

	nextSeq   uint64 // last assigned outgoing sequence number
	pending   []*wireItem
	nextWrite int // pending[:nextWrite] taken by the writer for the current conn
	// sentSeq is the highest sequence number whose turn on the current
	// conn is over (written, or withheld by an injected drop); 0 right
	// after attach. It is the cursor a heartbeat advertises: frames that
	// are assigned but still queued behind the writer are not missing.
	sentSeq uint64

	recvSeq  uint64 // highest contiguous incoming seq delivered
	lastRecv time.Time
	sinceAck int // reliable frames delivered since the last ack we sent

	wmu sync.Mutex // serialises raw conn writes (writer, heartbeats, acks)
	vw  vecWriter  // under wmu

	out [][]byte // the writer's buffers for its next writev

	turn *sync.Cond // on mu: sentSeq moved, or the connection went away

	notify   chan struct{} // writer wake-up
	redial   chan struct{} // connector wake-up (worker links)
	stopOnce sync.Once
	stopped  chan struct{}
}

// ackEvery bounds how many delivered reliable frames may pass before the
// receiver volunteers a cumulative ack (heartbeats also carry one), which
// bounds the sender's replay buffer.
const ackEvery = 64

func newLink(n *Node, proc int) *link {
	l := &link{n: n, proc: proc,
		notify:  make(chan struct{}, 1),
		redial:  make(chan struct{}, 1),
		stopped: make(chan struct{}),
		down:    true,
	}
	l.turn = sync.NewCond(&l.mu)
	return l
}

func (l *link) bump(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// engage starts the link's goroutines (writer, death monitor, and the
// dial loop for worker links). Idempotent.
func (l *link) engage() {
	l.mu.Lock()
	if l.engaged {
		l.mu.Unlock()
		return
	}
	l.engaged = true
	l.downSince = time.Now()
	l.lastRecv = time.Now()
	l.mu.Unlock()
	go l.writeLoop()
	go l.monitorLoop()
	if !l.n.isHub() {
		go l.dialLoop()
		l.bump(l.redial)
	}
}

func (l *link) stop() {
	l.stopOnce.Do(func() { close(l.stopped) })
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.turn.Broadcast()
	l.mu.Unlock()
}

// enqueue queues a reliable frame, assigning its sequence number. A credit
// also carries the receive cursor: the frames of the message whose receipt
// it reports are delivered, so the peer may release them now rather than
// at the next heartbeat or ackEvery. Returns false when the peer is
// already declared dead.
func (l *link) enqueue(f *frame, chaos bool) bool {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return false
	}
	l.nextSeq++
	f.seq = l.nextSeq
	if f.kind == kindCredit {
		f.ack = l.recvSeq
	}
	l.pending = append(l.pending, &wireItem{f: f, chaos: chaos})
	l.mu.Unlock()
	l.bump(l.notify)
	return true
}

// awaitTurn blocks until the writer has had its turn on the frame numbered
// seq, or until there is no connection to put it on (the replay will).
func (l *link) awaitTurn(seq uint64) {
	l.mu.Lock()
	for l.sentSeq < seq && l.conn != nil && !l.dead {
		l.turn.Wait()
	}
	l.mu.Unlock()
}

// handleAck prunes frames the peer has durably received and returns their
// buffers to the arena — the frame the writer holds once it is done.
func (l *link) handleAck(ack uint64) {
	l.mu.Lock()
	drop := 0
	for ; drop < len(l.pending) && l.pending[drop].f.seq <= ack; drop++ {
		if it := l.pending[drop]; it.writing {
			it.acked = true
		} else {
			it.f.release()
		}
	}
	if drop > 0 {
		l.pending = append([]*wireItem(nil), l.pending[drop:]...)
		l.nextWrite -= drop
		if l.nextWrite < 0 {
			l.nextWrite = 0
		}
	}
	l.mu.Unlock()
}

// attach installs a fresh connection after a successful handshake:
// everything the peer has not acked is scheduled for replay, in order,
// before new traffic.
func (l *link) attach(conn conn, peerAck uint64) {
	l.handleAck(peerAck)
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.gen++
	gen := l.gen
	l.down = false
	l.nextWrite = 0 // replay every surviving pending frame
	l.sentSeq = 0
	l.lastRecv = time.Now()
	if l.everUp {
		l.n.st.reconnects.Inc()
	}
	l.everUp = true
	l.mu.Unlock()
	go l.readLoop(conn, gen)
	l.bump(l.notify)
}

// connBroken tears down the generation's connection (idempotent per
// generation; stale callers are ignored) and kicks the reconnect path.
func (l *link) connBroken(gen int) {
	l.mu.Lock()
	if gen != l.gen || l.conn == nil {
		l.mu.Unlock()
		return
	}
	l.conn.Close()
	l.conn = nil
	l.down = true
	l.downSince = time.Now()
	l.turn.Broadcast()
	l.mu.Unlock()
	l.bump(l.redial)
}

// rawWrite writes parts on conn as one writev, under the write mutex with
// the configured write deadline; on failure the generation's connection is
// torn down.
func (l *link) rawWrite(conn conn, gen int, parts ...[]byte) bool {
	l.wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(l.n.cfg.DeathAfter))
	err := l.vw.write(conn, parts)
	l.wmu.Unlock()
	if err != nil {
		l.connBroken(gen)
		return false
	}
	return true
}

// writeLoop drains pending frames onto whatever connection is live: each
// turn takes every frame queued behind the writer and sends the run in one
// writev, so a burst of small frames (credits, control) costs one syscall.
func (l *link) writeLoop() {
	var run []*wireItem
	for {
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			return
		}
		conn := l.conn
		gen := l.gen
		run = run[:0]
		if conn != nil {
			run = append(run, l.pending[l.nextWrite:]...)
			l.nextWrite = len(l.pending)
			for _, item := range run {
				item.writing = true
			}
		}
		l.mu.Unlock()
		if len(run) == 0 {
			select {
			case <-l.notify:
				continue
			case <-l.stopped:
				return
			}
		}
		turned := l.put(conn, gen, run)
		l.mu.Lock()
		if turned > 0 && gen == l.gen {
			l.sentSeq = run[turned-1].f.seq
		}
		for _, item := range run {
			if item.writing = false; item.acked {
				item.f.release()
			}
		}
		l.turn.Broadcast()
		l.mu.Unlock()
		clear(run)
	}
}

// put gives a run of pending frames their turn on conn, through the wire
// fault layer for the frames this process originated, and reports how many
// of them had it; the rest (after a sever rule cut the connection) ride the
// post-reconnect replay. The fault layer judges each frame on its own: a
// frame it may act on goes out after everything before it is written, so
// a delay stalls that frame and what follows it, and a sever cuts the
// connection after its predecessors, exactly as if each frame were written
// alone.
func (l *link) put(conn conn, gen int, run []*wireItem) int {
	queued := int64(0) // frames in l.out
	queue := func(frames int64, parts ...[]byte) {
		l.out = append(l.out, parts...)
		queued += frames
	}
	flush := func() bool {
		ok := len(l.out) == 0 || l.rawWrite(conn, gen, l.out...)
		if ok {
			l.n.st.framesSent.Add(queued)
		}
		clear(l.out)
		l.out, queued = l.out[:0], 0
		return ok
	}
	inj := l.n.cfg.Injector
	for i, item := range run {
		if inj != nil && item.chaos && !flush() {
			return i
		}
		parts := item.f.seal()
		if item.writes > 0 {
			l.n.st.retransmits.Inc()
		}
		item.writes++
		if inj == nil || !item.chaos {
			queue(1, parts...)
			continue
		}
		rank := int(item.f.src)
		inj.Hit(fault.OpFrameDelay, rank) // stalls when a delay rule matches
		switch {
		case inj.Hit(fault.OpSever, rank) != nil:
			// Close before writing: the frame stays pending and rides
			// the post-reconnect replay. Counted here, where the cut is
			// made: a reconnect elsewhere is not evidence of this one.
			l.n.st.severs.Inc()
			l.connBroken(gen)
			return i
		case inj.Hit(fault.OpFrameDrop, rank) != nil:
			// Never hits the socket; the peer detects the sequence gap
			// (next frame or heartbeat cursor) and forces a
			// reconnect-replay.
			l.n.st.framesSent.Inc()
		case inj.Hit(fault.OpFrameCorrupt, rank) != nil:
			// The peer CRC-fails, reconnects, and the replay delivers it.
			mut := slices.Concat(parts...)
			mut[len(mut)-1] ^= 0x40 // inside the CRC trailer
			queue(1, mut)
		case inj.Hit(fault.OpFrameDup, rank) != nil:
			queue(1, parts...)
			queue(1, parts...)
		default:
			queue(1, parts...)
		}
	}
	flush()
	return len(run)
}

// heartbeat writes the liveness probe directly, outside the replay
// buffer: ack carries the cumulative receive cursor (the reader also sends
// one early as a bare ack), seq the send cursor, so a peer detects a
// silently dropped tail without waiting for more data. The send cursor is
// what has had its turn on this connection, not what has been assigned:
// advertising frames still queued behind the writer showed the peer a gap
// on a clean wire (the fault-free reconnect flicker). It is not one of the
// run's frames: how many a run sends depends on how long it lasted, so
// transport.frames_sent leaves it out.
func (l *link) heartbeat() {
	l.mu.Lock()
	conn, gen := l.conn, l.gen
	f := &frame{kind: kindHeartbeat, seq: l.sentSeq, ack: l.recvSeq}
	l.mu.Unlock()
	if conn != nil {
		l.rawWrite(conn, gen, encodeFrame(f))
	}
}

// monitorLoop sends the heartbeat and is the failure detector: a
// connected-but-silent peer gets its connection cycled (forcing the
// reconnect path to probe it), and a peer unreachable past DeathAfter is
// declared dead.
func (l *link) monitorLoop() {
	t := time.NewTicker(l.n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-l.stopped:
			return
		case <-t.C:
		}
		l.heartbeat()
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			return
		}
		now := time.Now()
		silent := now.Sub(l.lastRecv)
		downFor := time.Duration(0)
		if l.down {
			downFor = now.Sub(l.downSince)
		}
		gen := l.gen
		connected := l.conn != nil
		l.mu.Unlock()

		if connected && silent > 2*l.n.cfg.Heartbeat {
			l.n.st.heartbeatMisses.Inc()
		}
		if connected && silent > l.n.cfg.DeathAfter {
			// Half-open or wedged: cycle the connection so reconnect (and
			// its handshake) decides liveness.
			l.connBroken(gen)
			continue
		}
		if !connected && downFor > l.n.cfg.DeathAfter {
			l.declareDead()
			return
		}
	}
}

// declareDead marks the peer dead and notifies the node (idempotent).
func (l *link) declareDead() {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.turn.Broadcast()
	l.mu.Unlock()
	l.bump(l.notify)
	l.n.peerDead(l.proc)
}

func (l *link) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// readLoop decodes frames off one connection generation. Any decode
// error — torn tail, CRC mismatch, sequence gap — tears the connection
// down; the reconnect handshake's replay restores the stream.
func (l *link) readLoop(conn conn, gen int) {
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			if err == errCRC {
				l.n.st.crcErrors.Inc()
			}
			l.connBroken(gen)
			return
		}
		l.mu.Lock()
		l.lastRecv = time.Now()
		l.mu.Unlock()
		if f.ack > 0 {
			l.handleAck(f.ack)
		}
		if f.seq == 0 || f.kind == kindHeartbeat {
			f.release()
			// Heartbeats advertise the peer's send cursor in seq: a cursor
			// past what we've seen means the tail was dropped — force the
			// replay path instead of waiting for traffic.
			if f.kind == kindHeartbeat {
				l.mu.Lock()
				gap := f.seq > l.recvSeq
				l.mu.Unlock()
				if gap {
					l.connBroken(gen)
					return
				}
			}
			continue
		}
		// Only sequenced frames are the run's: heartbeats and bare acks
		// are not counted.
		l.n.st.framesRecv.Inc()
		l.mu.Lock()
		switch {
		case f.seq <= l.recvSeq:
			l.mu.Unlock()
			l.n.st.dupFrames.Inc()
			f.release()
			continue
		case f.seq == l.recvSeq+1:
			l.recvSeq++
			l.sinceAck++
			needAck := l.sinceAck >= ackEvery
			if needAck {
				l.sinceAck = 0
			}
			l.mu.Unlock()
			l.n.handleFrame(l.proc, f)
			f.release()
			if needAck {
				l.heartbeat()
			}
		default: // gap: an earlier frame never arrived
			l.mu.Unlock()
			l.connBroken(gen)
			return
		}
	}
}

// dialLoop (worker links only) keeps the hub connection alive: dial with
// capped exponential backoff whenever the link is down, run the hello
// handshake, and attach the accepted connection.
func (l *link) dialLoop() {
	backoff := redialBackoff
	for {
		select {
		case <-l.redial:
		case <-l.stopped:
			return
		}
		for {
			l.mu.Lock()
			need := l.conn == nil && !l.dead
			l.mu.Unlock()
			if !need {
				backoff = redialBackoff
				break
			}
			if l.dialOnce() {
				backoff = redialBackoff
				break
			}
			select {
			case <-time.After(backoff):
			case <-l.stopped:
				return
			}
			if backoff *= 2; backoff > maxRedialBackoff {
				backoff = maxRedialBackoff
			}
		}
	}
}

// dialOnce attempts one connect + hello handshake.
func (l *link) dialOnce() bool {
	conn, err := dialTCP(l.n.cfg.Addr, l.n.cfg.DeathAfter)
	if err != nil {
		return false
	}
	l.mu.Lock()
	myAck := l.recvSeq
	l.mu.Unlock()
	hello := encodeFrame(&frame{kind: kindHello, ack: myAck,
		payload: encodeInts(l.n.cfg.Proc)})
	conn.SetWriteDeadline(time.Now().Add(l.n.cfg.DeathAfter))
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return false
	}
	conn.SetReadDeadline(time.Now().Add(l.n.cfg.DeathAfter))
	// Read the reply without buffering past it: readFrame uses exact-size
	// reads, so the connection hands the next byte to the read loop.
	reply, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	var accept []int
	if err == nil && reply.kind == kindHelloAck {
		accept, _ = decodeInts(reply.payload)
	}
	if len(accept) < 1 || accept[0] != 1 {
		conn.Close()
		return false
	}
	l.attach(conn, reply.ack)
	return true
}

// encodeInts encodes an []int control payload.
func encodeInts(vs ...int) []byte {
	return appendPayload(nil, nil, vs)
}

// decodeInts decodes an []int control payload.
func decodeInts(b []byte) ([]int, bool) {
	_, ctl, err := decodePayload(b)
	return ctl, err == nil && ctl != nil
}
