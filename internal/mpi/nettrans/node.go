package nettrans

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/telemetry"
)

// Dial retries back off exponentially from redialBackoff to
// maxRedialBackoff.
const (
	redialBackoff    = 20 * time.Millisecond
	maxRedialBackoff = time.Second
)

// Config describes one process's place in a socket world.
type Config struct {
	// Addr is the hub's TCP listen address (hub) or dial target
	// (workers), an IPv4 literal with a port. A hub Addr of "127.0.0.1:0"
	// picks a free port — read it back with Addr().
	Addr string
	// Proc is this process's id; proc 0 is the hub every worker dials.
	Proc  int
	Procs int

	// Heartbeat is the liveness probe interval; DeathAfter the silence
	// window after which a peer is declared dead (heartbeat misses are
	// counted from 2×Heartbeat). DeathAfter also bounds each socket write,
	// a dial and the handshake round-trip.
	Heartbeat  time.Duration
	DeathAfter time.Duration

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
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.DeathAfter <= 0 {
		c.DeathAfter = 3 * time.Second
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

// phase names one of an epoch's two rendezvous: formation, before any rank
// runs, and the end of the attempt.
type phase int

const (
	phaseForm phase = iota
	phaseEnd
)

// rvKey names one rendezvous.
type rvKey struct {
	epoch int
	phase phase
}

// outcome is the hub's verdict on one rendezvous: whether the epoch goes
// on (formation) or finished clean (end), the world ranks lost, and the
// procs the hub holds dead.
type outcome struct {
	ok   bool
	lost []int
	dead []int
}

// Node is one process's long-lived endpoint of a socket world: it owns
// the links, survives across supervised attempts (epochs), and runs the
// per-epoch formation and verdict protocols that keep every process's
// view of the world — membership, shrink decisions, loss attribution —
// identical.
type Node struct {
	cfg Config
	ln  *listener
	st  *stats

	mu        sync.Mutex
	changed   chan struct{}
	epoch     int
	cur       *World // the active epoch's world, nil between attempts
	deadProcs map[int]bool
	links     map[int]*link
	closed    bool

	// The rendezvous' control buffers: reports (at the hub) and verdicts
	// (at a worker) can arrive while this process is still between
	// attempts; Run finds them when it reaches their epoch.
	reports  map[rvKey]map[int][]int // proc -> its report's control ints
	verdicts map[rvKey]*outcome
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
		reports:   map[rvKey]map[int][]int{},
		verdicts:  map[rvKey]*outcome{},
	}
	if n.isHub() {
		ln, err := listenTCP(cfg.Addr)
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
	return n.ln.addr
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
	return n.cur
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
func (n *Node) handshake(conn conn) {
	conn.SetReadDeadline(time.Now().Add(n.cfg.DeathAfter))
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
	conn.SetWriteDeadline(time.Now().Add(n.cfg.DeathAfter))
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
	w := n.cur
	n.bumpLocked()
	n.mu.Unlock()
	if w == nil {
		return
	}
	lost := w.procRanks(proc)
	if !n.isHub() && proc == 0 {
		lost = w.procRanks(-1) // the hub died: the rest is unreachable
	}
	if fresh := w.noteLost(lost, true); n.isHub() && len(fresh) > 0 {
		n.broadcastLost(w, fresh, proc)
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
	case f.kind == kindReport && len(ints) >= 3:
		k := rvKey{epoch, phase(ints[1])}
		if n.reports[k] == nil {
			n.reports[k] = map[int][]int{}
		}
		n.reports[k][from] = ints[2:]
	case f.kind == kindVerdict && len(ints) >= 4 && ints[3] >= 0 && len(ints) >= 4+ints[3]:
		v := &outcome{ok: ints[2] == 1, lost: ints[4 : 4+ints[3]], dead: ints[4+ints[3]:]}
		n.verdicts[rvKey{epoch, phase(ints[1])}] = v
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

// Run executes one world attempt (epoch): the formation rendezvous, then
// mpi.RunTransport over this node's ranks, with the end-of-attempt
// rendezvous folded in by World.Finish. assign maps proc id -> world ranks
// and must be identical in every process (the assignment hash is checked
// at formation).
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
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.cur = nil
		// Prune control buffers from settled epochs.
		maps.DeleteFunc(n.reports, func(k rvKey, _ map[int][]int) bool { return k.epoch <= e-2 })
		maps.DeleteFunc(n.verdicts, func(k rvKey, _ *outcome) bool { return k.epoch <= e-2 })
		n.bumpLocked()
		n.mu.Unlock()
	}()

	world, err := n.newWorld(e, size, assign)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.cur = world
	n.bumpLocked()
	n.mu.Unlock()

	hash := assignHash(size, assign)
	mine := []int{int(hash >> 32), int(uint32(hash))}
	timeout := 2*n.cfg.DeathAfter + time.Second
	if !n.isHub() {
		// Workers outwait the hub's own formation window: when formation
		// fails over there, the verdict (not a local timeout) is what tells
		// this process which ranks to shrink away.
		timeout *= 2
		l := n.links[0]
		l.engage()
		l.bump(l.redial)
	}
	var refused []int
	v := n.rendezvous(world, phaseForm, mine, timeout, func(reports map[int][]int, absent []int) *outcome {
		for p, r := range reports {
			if !slices.Equal(r, mine) {
				refused = append(refused, p)
			}
		}
		if len(refused) > 0 {
			// A refusal loses no rank: no supervisor shrinks a healthy
			// world over it.
			return &outcome{}
		}
		return &outcome{ok: len(absent) == 0, lost: absent}
	})
	switch {
	case v == nil:
		return n.noVerdict(world, phaseForm)
	case len(refused) > 0:
		sort.Ints(refused)
		return fmt.Errorf("nettrans: epoch %d: procs %v joined with a different world assignment", e, refused)
	case !v.ok && len(v.lost) == 0:
		return fmt.Errorf("nettrans: proc %d: the hub refused epoch %d: the procs hold different world assignments", n.cfg.Proc, e)
	case !v.ok:
		// Some proc never joined: shrink along the verdict like everyone
		// else.
		return &mpi.RankLostError{Rank: -1, Peer: -1, Op: "formation", Lost: v.lost}
	}

	return mpi.RunTransport(mpi.TransportWorld{
		Size:      size,
		Local:     assign[n.cfg.Proc],
		Transport: world,
		MsgIDBase: n.cfg.MsgIDBase,
	}, opt, fn)
}

// rendezvous runs one phase of w's epoch and returns the hub's verdict, or
// nil if none came: the node closed, the hub died or the timeout passed. A
// worker reports ints and waits for the verdict. The hub takes ints as its
// own report, waits for one from every live worker, declares the silent
// ones dead, and decides with decide, which is given every report by proc
// and absent: the ranks of the dead procs that sent none. The verdict also
// names every proc the hub holds dead. A hub closed during formation
// returns nil; at the end of the attempt it still decides, so its lost
// ranks stay those of the silent procs.
func (n *Node) rendezvous(w *World, ph phase, ints []int, timeout time.Duration,
	decide func(reports map[int][]int, absent []int) *outcome) *outcome {
	k := rvKey{w.epoch, ph}
	if !n.isHub() {
		report := encodeInts(append([]int{w.epoch, int(ph)}, ints...)...)
		n.links[0].enqueue(&frame{kind: kindReport, payload: report}, false)
		n.waitCond(timeout, func() bool { return n.verdicts[k] != nil || n.deadProcs[0] || n.closed })
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.verdicts[k]
	}
	silent := func() []int { // callers hold n.mu
		var out []int
		for p := 1; p < n.cfg.Procs; p++ {
			if _, ok := n.reports[k][p]; !ok && !n.deadProcs[p] {
				out = append(out, p)
			}
		}
		return out
	}
	n.mu.Lock()
	if n.reports[k] == nil {
		n.reports[k] = map[int][]int{}
	}
	n.reports[k][0] = ints
	n.mu.Unlock()
	n.waitCond(timeout, func() bool { return len(silent()) == 0 || n.closed })
	n.mu.Lock()
	missing, closed := silent(), n.closed
	n.mu.Unlock()
	if closed && ph == phaseForm {
		return nil
	}
	for _, p := range missing {
		n.links[p].declareDead() // marks deadProcs via peerDead
	}
	n.mu.Lock()
	var absent, dead []int
	for p := 1; p < n.cfg.Procs; p++ {
		if n.deadProcs[p] {
			if _, ok := n.reports[k][p]; !ok {
				absent = append(absent, w.procRanks(p)...)
			}
			dead = append(dead, p)
		}
	}
	sort.Ints(absent)
	v := decide(n.reports[k], absent)
	v.dead = dead
	n.mu.Unlock()
	verdict := append([]int{w.epoch, int(ph), flag(v.ok), len(v.lost)}, v.lost...)
	sent := n.broadcast(kindVerdict, encodeInts(append(verdict, v.dead...)...), -1)
	if ph == phaseEnd || !v.ok {
		// The hub's Run returns on this verdict, and its caller may block
		// next (a coordinator reaping its workers does): a verdict still
		// queued behind a blocked process holds every worker up.
		for l, f := range sent {
			l.awaitTurn(f.seq)
		}
	}
	return v
}

// noVerdict is the error of a rendezvous that came to no verdict. With no
// verdict at the end of the attempt, or with the hub dead (the routing
// spine), everything not hosted here is unaccounted for.
func (n *Node) noVerdict(w *World, ph phase) error {
	n.mu.Lock()
	closed, hubDead := n.closed, n.deadProcs[0]
	n.mu.Unlock()
	lost := &mpi.RankLostError{Rank: -1, Peer: 0, Op: "verdict", Lost: w.procRanks(-1)}
	switch {
	case ph == phaseEnd:
		return fmt.Errorf("nettrans: proc %d: no verdict for epoch %d: %w", n.cfg.Proc, w.epoch, lost)
	case closed:
		return errors.New("nettrans: node closed during formation")
	case hubDead:
		lost.Op = "formation"
		return fmt.Errorf("nettrans: hub unreachable: %w", lost)
	}
	return fmt.Errorf("nettrans: proc %d: formation of epoch %d timed out", n.cfg.Proc, w.epoch)
}

// finishEpoch is the end-of-attempt rendezvous World.Finish delegates to.
// Every process reports its outcome; the verdict is the union of the loss
// attributions reported and the ranks of the procs that died without a
// report, which is what keeps LostRanks — and so every supervisor's
// shrink decision — identical across processes.
func (n *Node) finishEpoch(w *World, localErr error) ([]int, error) {
	lost := append(mpi.LostRanks(localErr), w.knownLost()...)
	sort.Ints(lost)
	report := append([]int{flag(localErr == nil)}, lost...)
	v := n.rendezvous(w, phaseEnd, report, 4*n.cfg.DeathAfter+time.Second, func(reports map[int][]int, absent []int) *outcome {
		v := &outcome{ok: true, lost: absent}
		for _, r := range reports {
			v.ok = v.ok && r[0] == 1
			v.lost = append(v.lost, r[1:]...)
		}
		slices.Sort(v.lost)
		v.lost = slices.Compact(v.lost)
		v.ok = v.ok && len(v.lost) == 0
		return v
	})
	switch {
	case v == nil:
		return nil, n.noVerdict(w, phaseEnd)
	case v.ok:
		return nil, nil
	}
	return v.lost, nil
}

// flag is a bool as a control int.
func flag(b bool) int {
	if b {
		return 1
	}
	return 0
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
