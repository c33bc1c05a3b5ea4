package nettrans

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/telemetry"
)

// Config describes one process's place in a socket world.
type Config struct {
	// Network is "tcp" or "unix"; Addr is the hub's listen address (hub)
	// or dial target (workers). A hub Addr of "127.0.0.1:0" picks a free
	// port — read it back with Addr().
	Network string
	Addr    string
	// Proc is this process's id; proc 0 is the hub every worker dials.
	Proc  int
	Procs int

	// Heartbeat is the liveness probe interval; DeathAfter the silence
	// window after which a peer is declared dead (heartbeat misses are
	// counted from 2×Heartbeat). Dial retries back off exponentially from
	// DialBackoff to MaxDialBackoff. WriteTimeout bounds each socket
	// write (and the handshake round-trip).
	Heartbeat      time.Duration
	DeathAfter     time.Duration
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration
	WriteTimeout   time.Duration

	// Injector, when non-nil, drives the wire fault layer: frame-drop,
	// frame-corrupt, frame-dup, frame-delay and sever rules fire once per
	// outgoing data frame, keyed by the sending world rank, below the
	// frame codec — so recovery exercises the real CRC/sequence/replay
	// machinery.
	Injector *fault.Injector
	// Telemetry, when non-nil, receives the transport.* counters
	// (frames, retransmits, reconnects, severs, heartbeat misses, CRC
	// errors, duplicate frames). Use the run's shared registry.
	Telemetry *telemetry.Registry
	// MsgIDBase partitions the telemetry message-id space between
	// processes that each own a telemetry Run (e.g. (proc)<<44), so flow
	// records in per-process artifacts never collide. Leave 0 when every
	// proc shares one Run (in-process fleets), which keeps cross-process
	// flows causally paired.
	MsgIDBase int64
}

func (c *Config) fill() {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.Procs <= 0 {
		c.Procs = 1
	}
	for _, d := range []struct {
		v   *time.Duration
		def time.Duration
	}{{&c.Heartbeat, 100 * time.Millisecond}, {&c.DeathAfter, 3 * time.Second},
		{&c.DialBackoff, 20 * time.Millisecond}, {&c.MaxDialBackoff, time.Second}} {
		if *d.v <= 0 {
			*d.v = d.def
		}
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = c.DeathAfter
	}
}

type stats struct {
	framesSent, framesRecv   *telemetry.Counter
	retransmits, reconnects  *telemetry.Counter
	severs                   *telemetry.Counter
	heartbeatMisses          *telemetry.Counter
	dupFrames, crcErrors     *telemetry.Counter
	staleDrops, decodeErrors *telemetry.Counter
}

func newStats(reg *telemetry.Registry) *stats {
	return &stats{
		framesSent:      reg.Counter("transport.frames_sent"),
		framesRecv:      reg.Counter("transport.frames_recv"),
		retransmits:     reg.Counter("transport.retransmits"),
		reconnects:      reg.Counter("transport.reconnects"),
		severs:          reg.Counter("transport.severs"),
		heartbeatMisses: reg.Counter("transport.heartbeat_misses"),
		dupFrames:       reg.Counter("transport.dup_frames"),
		crcErrors:       reg.Counter("transport.crc_errors"),
		staleDrops:      reg.Counter("transport.stale_drops"),
		decodeErrors:    reg.Counter("transport.decode_errors"),
	}
}

// outcome is one process's end-of-attempt report (done) or the hub's
// world verdict, which also names the procs it found dead.
type outcome struct {
	ok   bool
	lost []int
	dead []int
}

type epochState struct {
	epoch  int
	size   int
	assign [][]int
	world  *World
}

// Node is one process's long-lived endpoint of a socket world: it owns
// the links, survives across supervised attempts (epochs), and runs the
// per-epoch formation and verdict protocols that keep every process's
// view of the world — membership, shrink decisions, loss attribution —
// identical.
type Node struct {
	cfg Config
	ln  net.Listener
	st  *stats

	mu        sync.Mutex
	changed   chan struct{}
	epoch     int
	cur       *epochState
	deadProcs map[int]bool
	links     map[int]*link
	closed    bool

	// Cross-epoch control buffers: joins/starts/dones/verdicts can arrive
	// while this process is still between attempts; they are folded into
	// the epoch when Run reaches it.
	joins    map[int]map[int]uint64 // epoch -> proc -> assignment hash
	starts   map[int]bool           // epoch -> hub's start received (worker)
	dones    map[int]map[int]*outcome
	verdicts map[int]*outcome
}

// NewNode builds this process's endpoint. The hub starts listening
// immediately; workers dial lazily on the first Run.
func NewNode(cfg Config) (*Node, error) {
	cfg.fill()
	if cfg.Proc < 0 || cfg.Proc >= cfg.Procs {
		return nil, fmt.Errorf("nettrans: proc %d outside 0..%d", cfg.Proc, cfg.Procs-1)
	}
	n := &Node{cfg: cfg, st: newStats(cfg.Telemetry),
		changed:   make(chan struct{}),
		deadProcs: map[int]bool{},
		links:     map[int]*link{},
		joins:     map[int]map[int]uint64{},
		starts:    map[int]bool{},
		dones:     map[int]map[int]*outcome{},
		verdicts:  map[int]*outcome{},
	}
	if n.isHub() {
		ln, err := net.Listen(cfg.Network, cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("nettrans: hub listen: %w", err)
		}
		n.ln = ln
		for p := 1; p < cfg.Procs; p++ {
			n.links[p] = newLink(n, p)
		}
		go n.acceptLoop()
	} else {
		n.links[0] = newLink(n, 0)
	}
	return n, nil
}

func (n *Node) isHub() bool { return n.cfg.Proc == 0 }

// Addr returns the hub's actual listen address (useful with ":0").
func (n *Node) Addr() string {
	if n.ln == nil {
		return n.cfg.Addr
	}
	return n.ln.Addr().String()
}

// Close tears the node down: listener, connections, goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.bumpLocked()
	n.mu.Unlock()
	if n.ln != nil {
		n.ln.Close()
	}
	for _, l := range links {
		l.stop()
	}
	return nil
}

// bumpLocked wakes every waitCond waiter; callers hold n.mu.
func (n *Node) bumpLocked() {
	close(n.changed)
	n.changed = make(chan struct{})
}

// waitCond blocks until pred (evaluated under n.mu) holds or the timeout
// expires; returns pred's final value.
func (n *Node) waitCond(timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		n.mu.Lock()
		if pred() {
			n.mu.Unlock()
			return true
		}
		ch := n.changed
		n.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			n.mu.Lock()
			ok := pred()
			n.mu.Unlock()
			return ok
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

func (n *Node) procIsDead(p int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.deadProcs[p]
}

// LiveProcs returns the sorted ids of processes not declared dead.
func (n *Node) LiveProcs() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	for p := 0; p < n.cfg.Procs; p++ {
		if !n.deadProcs[p] {
			out = append(out, p)
		}
	}
	return out
}

// curWorld returns the active epoch's world (nil between attempts).
func (n *Node) curWorld() *World {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cur == nil {
		return nil
	}
	return n.cur.world
}

// acceptLoop (hub) turns incoming connections into link attachments.
func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go n.handshake(conn)
	}
}

// handshake validates a worker's hello and attaches the connection. The
// helloAck (carrying the hub's receive cursor for replay) is written
// before the link's writer can race new frames onto the wire.
func (n *Node) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(n.cfg.WriteTimeout))
	f, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	var ints []int
	if err == nil && f.kind == kindHello {
		ints, _ = decodeInts(f.payload)
	}
	if len(ints) < 1 {
		conn.Close()
		return
	}
	proc := ints[0]
	n.mu.Lock()
	l := n.links[proc]
	// A dead proc stays dead: its epoch state diverged the moment the
	// world shrank without it.
	rejected := l == nil || n.deadProcs[proc] || n.closed
	n.mu.Unlock()
	accept, ack := 0, uint64(0)
	if !rejected {
		l.engage()
		l.mu.Lock()
		accept, ack = 1, l.recvSeq
		l.mu.Unlock()
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
	_, werr := conn.Write(encodeFrame(&frame{kind: kindHelloAck, ack: ack, payload: encodeInts(accept)}))
	if rejected || werr != nil {
		conn.Close()
		return
	}
	l.attach(conn, f.ack)
}

// route queues a data frame toward its destination process: workers
// relay everything through the hub; the hub owns a direct link per
// worker. origin marks frames entering the wire at this process (the
// wire fault layer applies only there). Returns false when the path is
// dead.
func (n *Node) route(w *World, f *frame, origin bool) bool {
	var l *link
	n.mu.Lock()
	if n.isHub() {
		l = n.links[w.rankProc[int(f.dst)]]
	} else {
		l = n.links[0]
	}
	n.mu.Unlock()
	if l == nil || l.isDead() {
		return false
	}
	return l.enqueue(f, origin && f.kind == kindData)
}

// broadcast queues one control frame on the link to every live process but
// exclude and returns the frames, numbered.
func (n *Node) broadcast(kind frameKind, payload []byte, exclude int) map[*link]*frame {
	n.mu.Lock()
	out := map[*link]*frame{}
	for p, l := range n.links {
		if p != exclude && !n.deadProcs[p] {
			out[l] = &frame{kind: kind, payload: payload}
		}
	}
	n.mu.Unlock()
	for l, f := range out {
		l.enqueue(f, false)
	}
	return out
}

// broadcastLost ships a loss report to every other live process (workers
// tell the hub; the hub fans out, excluding the reporting proc).
func (n *Node) broadcastLost(w *World, ranks []int, exclude int) {
	n.broadcast(kindLost, encodeInts(append([]int{w.epoch}, ranks...)...), exclude)
}

// peerDead reacts to a link's death verdict: the proc is excluded from
// future epochs, and if an epoch is in flight, its ranks are reported
// lost — locally and (from the hub) to every other worker.
func (n *Node) peerDead(proc int) {
	n.mu.Lock()
	if n.deadProcs[proc] {
		n.mu.Unlock()
		return
	}
	n.deadProcs[proc] = true
	es := n.cur
	n.bumpLocked()
	n.mu.Unlock()
	if es == nil || es.world == nil {
		return
	}
	lost := es.assign[proc]
	if !n.isHub() && proc == 0 {
		lost = es.world.procRanks(-1) // the hub died: the rest is unreachable
	}
	fresh := es.world.noteLost(lost, true)
	if n.isHub() && len(fresh) > 0 {
		n.broadcastLost(es.world, fresh, proc)
	}
}

// handleFrame dispatches one delivered reliable frame from peer proc.
// It runs on the link reader goroutine and must never block.
func (n *Node) handleFrame(from int, f *frame) {
	if f.kind == kindData || f.kind == kindCredit {
		w := n.curWorld()
		src, dst := int(f.src), int(f.dst)
		if w == nil || src < 0 || src >= w.size || dst < 0 || dst >= w.size ||
			f.kind == kindCredit && int(f.tag) != w.epoch {
			n.st.staleDrops.Inc()
			return
		}
		if w.local[dst] {
			if f.kind == kindCredit {
				w.box(f.comm, f.dst, f.src).credit()
				return
			}
			m, err := f.message()
			if err != nil {
				n.st.decodeErrors.Inc()
				return
			}
			w.box(f.comm, f.src, f.dst).push(m)
			return
		}
		if n.isHub() {
			// Forward leg: re-stamped for the destination's link with a
			// fresh link sequence number, payload untouched and uncopied;
			// the read buffer goes with it and back to the arena on its ack.
			fwd := &frame{kind: f.kind, comm: f.comm, src: f.src, dst: f.dst,
				tag: f.tag, msgID: f.msgID, wire: f.wire, buf: f.buf}
			f.buf = nil
			if !n.route(w, fwd, false) {
				n.st.staleDrops.Inc()
			}
			return
		}
		n.st.staleDrops.Inc()
		return
	}
	// Control frames: control ints, the epoch first.
	ints, ok := decodeInts(f.payload)
	if !ok || len(ints) < 1 {
		return
	}
	epoch := ints[0]
	if f.kind == kindLost {
		w := n.curWorld()
		if w == nil || w.epoch != epoch {
			n.st.staleDrops.Inc()
		} else if fresh := w.noteLost(ints[1:], true); n.isHub() && len(fresh) > 0 {
			n.broadcastLost(w, fresh, from)
		}
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case f.kind == kindStart && n.isHub():
		var hash uint64
		if len(ints) >= 3 {
			hash = uint64(ints[1])<<32 | uint64(uint32(ints[2]))
		}
		if n.joins[epoch] == nil {
			n.joins[epoch] = map[int]uint64{}
		}
		n.joins[epoch][from] = hash
	case f.kind == kindStart:
		n.starts[epoch] = true
	case f.kind == kindDone && len(ints) >= 2:
		if n.dones[epoch] == nil {
			n.dones[epoch] = map[int]*outcome{}
		}
		n.dones[epoch][from] = &outcome{ok: ints[1] == 1, lost: ints[2:]}
	case f.kind == kindVerdict && len(ints) >= 3 && ints[2] >= 0 && len(ints) >= 3+ints[2]:
		v := &outcome{ok: ints[1] == 1, lost: ints[3 : 3+ints[2]], dead: ints[3+ints[2]:]}
		n.verdicts[epoch] = v
		for _, p := range v.dead {
			n.deadProcs[p] = true
		}
	}
	n.bumpLocked()
}

// assignHash fingerprints (size, assignment) so formation catches
// processes that shrank differently before any data moves.
func assignHash(size int, assign [][]int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(size)
	for p, ranks := range assign {
		put(-p - 1)
		for _, r := range ranks {
			put(r)
		}
	}
	return h.Sum64()
}

// Run executes one world attempt (epoch): formation rendezvous, then
// mpi.RunTransport over this node's ranks, with the verdict exchange
// folded in by World.Finish. assign maps proc id -> world ranks and must
// be identical in every process (the assignment hash is checked at
// formation).
func (n *Node) Run(size int, assign [][]int, opt mpi.Options, fn func(c *mpi.Comm) error) error {
	if len(assign) != n.cfg.Procs {
		return fmt.Errorf("nettrans: assignment covers %d procs, world has %d", len(assign), n.cfg.Procs)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("nettrans: node closed")
	}
	n.epoch++
	e := n.epoch
	es := &epochState{epoch: e, size: size, assign: assign}
	n.cur = es
	n.bumpLocked()
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.cur = nil
		// Prune control buffers from settled epochs.
		for k := e - 4; k <= e-2; k++ {
			delete(n.joins, k)
			delete(n.starts, k)
			delete(n.dones, k)
			delete(n.verdicts, k)
		}
		n.bumpLocked()
		n.mu.Unlock()
	}()

	world, err := n.newWorld(e, size, assign)
	if err != nil {
		return err
	}
	n.mu.Lock()
	es.world = world
	n.mu.Unlock()

	hash := assignHash(size, assign)
	formTimeout := 2*n.cfg.DeathAfter + time.Second
	if n.isHub() {
		if err := n.formAsHub(es, hash, formTimeout); err != nil {
			return err
		}
	} else {
		// Workers outwait the hub's own formation window: when formation
		// fails over there, the verdict (not a local timeout) is what tells
		// this process which ranks to shrink away.
		if err := n.formAsWorker(es, hash, 2*formTimeout); err != nil {
			return err
		}
	}

	return mpi.RunTransport(mpi.TransportWorld{
		Size:      size,
		Local:     assign[n.cfg.Proc],
		Transport: world,
		MsgIDBase: n.cfg.MsgIDBase,
	}, opt, fn)
}

// formAsWorker joins the epoch and waits for the hub's go signal.
func (n *Node) formAsWorker(es *epochState, hash uint64, timeout time.Duration) error {
	l := n.links[0]
	l.engage()
	l.bump(l.redial)
	join := encodeInts(es.epoch, int(hash>>32), int(uint32(hash)))
	if !l.enqueue(&frame{kind: kindStart, payload: join}, false) {
		return n.hubLostErr(es)
	}
	n.waitCond(timeout, func() bool {
		return n.starts[es.epoch] || n.verdicts[es.epoch] != nil || n.deadProcs[0] || n.closed
	})
	n.mu.Lock()
	started := n.starts[es.epoch]
	v := n.verdicts[es.epoch]
	hubDead := n.deadProcs[0]
	closed := n.closed
	n.mu.Unlock()
	switch {
	case started:
		return nil
	case v != nil:
		// Formation failed world-wide (some proc never joined); shrink
		// along the verdict like everyone else.
		return &mpi.RankLostError{Rank: -1, Peer: -1, Op: "formation", Lost: v.lost}
	case closed:
		return errors.New("nettrans: node closed during formation")
	case hubDead:
		return n.hubLostErr(es)
	default:
		return fmt.Errorf("nettrans: proc %d: formation of epoch %d timed out", n.cfg.Proc, es.epoch)
	}
}

// hubLostErr attributes every non-local rank as lost (the hub is the
// routing spine; without it the rest of the world is unreachable).
func (n *Node) hubLostErr(es *epochState) error {
	return fmt.Errorf("nettrans: hub unreachable: %w",
		&mpi.RankLostError{Rank: -1, Peer: 0, Op: "formation", Lost: es.world.procRanks(-1)})
}

// formAsHub waits for every live process to join the epoch with a
// matching assignment, then broadcasts the start signal. Processes that
// fail to appear are declared dead and the epoch is failed with their
// ranks lost, so supervisors everywhere shrink identically.
func (n *Node) formAsHub(es *epochState, hash uint64, timeout time.Duration) error {
	e := es.epoch
	need := func() []int {
		// Live procs (excluding self) that have not joined yet. Callers
		// hold n.mu.
		var missing []int
		for p := 1; p < n.cfg.Procs; p++ {
			if n.deadProcs[p] {
				continue
			}
			if _, ok := n.joins[e][p]; !ok {
				missing = append(missing, p)
			}
		}
		return missing
	}
	n.waitCond(timeout, func() bool { return len(need()) == 0 || n.closed })
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("nettrans: node closed during formation")
	}
	missing := need()
	var mismatched []int
	for p, h := range n.joins[e] {
		if !n.deadProcs[p] && h != hash {
			mismatched = append(mismatched, p)
		}
	}
	n.mu.Unlock()
	if len(mismatched) > 0 {
		return fmt.Errorf("nettrans: epoch %d: procs %v joined with a different world assignment", e, mismatched)
	}
	if len(missing) > 0 {
		// Declare the no-shows dead and fail the epoch before any rank
		// runs: the verdict tells every joined worker to shrink.
		var lost []int
		for _, p := range missing {
			n.links[p].declareDead()
			lost = append(lost, es.assign[p]...)
		}
		sort.Ints(lost)
		n.mu.Lock()
		dead := append([]int(nil), missing...)
		n.verdicts[e] = &outcome{ok: false, lost: lost, dead: dead}
		n.mu.Unlock()
		n.broadcastVerdict(e, &outcome{ok: false, lost: lost, dead: dead})
		return &mpi.RankLostError{Rank: -1, Peer: -1, Op: "formation", Lost: lost}
	}
	n.broadcast(kindStart, encodeInts(e), -1)
	return nil
}

// broadcastVerdict ships the epoch outcome to every live worker and
// returns once each link's writer has had its turn on it: the hub's caller
// may block next (a coordinator reaping its workers does), and a verdict
// still queued behind a blocked process holds every worker up.
func (n *Node) broadcastVerdict(epoch int, v *outcome) {
	okFlag := 0
	if v.ok {
		okFlag = 1
	}
	ints := append([]int{epoch, okFlag, len(v.lost)}, v.lost...)
	ints = append(ints, v.dead...)
	for l, f := range n.broadcast(kindVerdict, encodeInts(ints...), -1) {
		l.awaitTurn(f.seq)
	}
}

// finishEpoch is the end-of-attempt verdict exchange World.Finish
// delegates to. Every process reports its outcome; the hub unions the
// loss attributions (plus the ranks of processes that died silently) and
// broadcasts one world verdict, which is what keeps LostRanks — and so
// every supervisor's shrink decision — identical across processes.
func (n *Node) finishEpoch(w *World, localErr error) ([]int, error) {
	e := w.epoch
	lost := append(mpi.LostRanks(localErr), w.knownLost()...)
	sort.Ints(lost)
	ok := localErr == nil
	rec := &outcome{ok: ok, lost: lost}
	verdictTimeout := 4*n.cfg.DeathAfter + time.Second

	if !n.isHub() {
		okFlag := 0
		if ok {
			okFlag = 1
		}
		payload := encodeInts(append([]int{e, okFlag}, lost...)...)
		n.links[0].enqueue(&frame{kind: kindDone, payload: payload}, false)
		n.waitCond(verdictTimeout, func() bool {
			return n.verdicts[e] != nil || n.deadProcs[0] || n.closed
		})
		n.mu.Lock()
		v := n.verdicts[e]
		n.mu.Unlock()
		if v == nil {
			// No verdict means the hub is gone (or unreachable past the
			// timeout): everything not hosted here is unaccounted for.
			return nil, fmt.Errorf("nettrans: proc %d: no verdict for epoch %d: %w",
				n.cfg.Proc, e, &mpi.RankLostError{Rank: -1, Peer: 0, Op: "verdict", Lost: w.procRanks(-1)})
		}
		if v.ok {
			return nil, nil
		}
		return v.lost, nil
	}

	// Hub: collect everyone's outcome, fold in silent deaths, decide.
	n.mu.Lock()
	if n.dones[e] == nil {
		n.dones[e] = map[int]*outcome{}
	}
	n.dones[e][0] = rec
	n.mu.Unlock()
	waiting := func() []int {
		var miss []int
		for p := 1; p < n.cfg.Procs; p++ {
			if n.deadProcs[p] {
				continue
			}
			if _, got := n.dones[e][p]; !got {
				miss = append(miss, p)
			}
		}
		return miss
	}
	n.waitCond(verdictTimeout, func() bool { return len(waiting()) == 0 || n.closed })
	n.mu.Lock()
	missing := waiting()
	n.mu.Unlock()
	for _, p := range missing {
		n.links[p].declareDead() // marks deadProcs via peerDead
	}
	n.mu.Lock()
	allOK := rec.ok
	var union, deadNow []int
	for _, d := range n.dones[e] {
		allOK = allOK && d.ok
		union = append(union, d.lost...)
	}
	for p := 1; p < n.cfg.Procs; p++ {
		if n.deadProcs[p] {
			if _, reported := n.dones[e][p]; !reported {
				// Died without a word this epoch: its ranks are lost.
				union = append(union, w.procRanks(p)...)
			}
			deadNow = append(deadNow, p)
		}
	}
	slices.Sort(union)
	union = slices.Compact(union)
	v := &outcome{ok: allOK && len(union) == 0, lost: union, dead: deadNow}
	n.verdicts[e] = v
	n.mu.Unlock()
	n.broadcastVerdict(e, v)
	if v.ok {
		return nil, nil
	}
	return v.lost, nil
}

// AssignRanks computes the standard proc assignment for a world of n
// ranks grouped by nr: every group-leader rank (r % nr == 0) lands on
// the hub — so all slab output and journal writes stay with the
// coordinator process — and the remaining ranks round-robin over the
// live workers. The result is indexed by proc id over totalProcs (dead
// procs get empty slices). Deterministic in its inputs, which every
// process derives from its own (identical) shrink decision.
func AssignRanks(n, nr int, live []int, totalProcs int) ([][]int, error) {
	if n <= 0 || nr <= 0 || n%nr != 0 {
		return nil, fmt.Errorf("nettrans: bad world shape n=%d nr=%d", n, nr)
	}
	if len(live) == 0 || live[0] != 0 {
		return nil, fmt.Errorf("nettrans: hub (proc 0) not live in %v", live)
	}
	assign := make([][]int, totalProcs)
	workers := live[1:]
	wi := 0
	for r := 0; r < n; r++ {
		p := 0
		if r%nr != 0 && len(workers) > 0 {
			p = workers[wi%len(workers)]
			wi++
		}
		assign[p] = append(assign[p], r)
	}
	return assign, nil
}

// Launcher adapts the node to core.ClusterOptions.Launch: each call maps
// the requested world size onto the live processes with AssignRanks and
// runs one epoch. nr is the plan's ranks-per-group (pinned across
// supervised shrinks).
func (n *Node) Launcher(nr int) func(size int, opt mpi.Options, fn func(c *mpi.Comm) error) error {
	return func(size int, opt mpi.Options, fn func(c *mpi.Comm) error) error {
		assign, err := AssignRanks(size, nr, n.LiveProcs(), n.cfg.Procs)
		if err != nil {
			return err
		}
		return n.Run(size, assign, opt, fn)
	}
}
