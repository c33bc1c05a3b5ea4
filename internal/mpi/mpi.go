// Package mpi is a message-passing runtime standing in for MPI in the
// paper's distributed framework. Ranks are goroutines; every message rides a
// Transport — in-process channels when all ranks are local (RunWith),
// sockets when they are spread over OS processes (package nettrans) — and
// communicators carry the collectives the reconstruction runs: Barrier, the
// segmented binomial-tree reduction (ReduceChunked), its hierarchical
// node-leader variant of Section 4.4.2 (HierarchicalReduce) and CommSplit
// (the grouping of Section 4.4.1). Both reductions run one binomial-tree
// loop, so their per-element summation order is shared. All collectives
// move and reduce real data, and every rank keeps byte/message counters so
// communication-volume experiments (Table 2's complexity column) measure
// actual traffic.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distfdk/internal/telemetry"
)

// Stats is a rank's traffic on one communicator: a value view read off the
// endpoint's counters (Comm.Stats).
type Stats struct {
	BytesSent    int64
	BytesRecv    int64
	MessagesSent int64
	MessagesRecv int64
	// ReduceChunks counts the pipelined segments this rank forwarded to
	// its tree parent during ReduceChunked calls, so chunked-reduction
	// experiments can report per-chunk traffic.
	ReduceChunks int64
}

// Comm is a communicator endpoint bound to one rank, analogous to an
// MPI_Comm plus the owning rank's identity. The deadline and interceptor
// are per-endpoint settings inherited by communicators Split from this
// one.
type Comm struct {
	rank, size int
	group      *group
	// The endpoint's traffic counters: the only store of what it moved.
	// Send, Recv and ReduceChunked add to them once; Stats reads them; and
	// under telemetry the byte and chunk counters have the rank registry's
	// as parents (see setTelemetry), so the registry totals the rank's
	// traffic over every communicator while each endpoint starts at zero.
	// Message counts stay the endpoint's alone: the registry already has
	// them as the observation counts of mpi.send_ns / mpi.recv_ns.
	bytesSent, bytesRecv telemetry.Counter
	msgsSent, msgsRecv   telemetry.Counter
	reduceChunks         telemetry.Counter
	deadline             time.Duration
	icept                Interceptor
	// splitSeq counts this endpoint's Split calls: collective calls pair up
	// by sequence number, and the number seeds the child communicator's id.
	splitSeq int
	// tm carries the rank's telemetry handles; Split-derived communicators
	// inherit it, so one rank's traffic on every communicator lands in one
	// registry. Nil costs one check per operation.
	tm *commTelemetry
}

// commTelemetry caches the handles one rank reports point-to-point and
// collective activity into, resolved once per rank in RunTransport so the
// per-message path never touches the registry's name map.
type commTelemetry struct {
	// reg is kept for the operations that need more than a pre-resolved
	// handle: flow records (variable per-message payload) and the epoch
	// clock they are stamped on.
	reg *telemetry.Registry
	// The parents of every endpoint's byte and chunk counters on this rank.
	sendBytes, recvBytes, reduceChunks *telemetry.Counter
	sendNs, recvNs, reduceChunkNs      *telemetry.Histogram
}

func newCommTelemetry(reg *telemetry.Registry) *commTelemetry {
	if reg == nil {
		return nil
	}
	return &commTelemetry{
		reg:           reg,
		sendBytes:     reg.Counter("mpi.bytes_sent"),
		recvBytes:     reg.Counter("mpi.bytes_recv"),
		sendNs:        reg.Histogram("mpi.send_ns"),
		recvNs:        reg.Histogram("mpi.recv_ns"),
		reduceChunks:  reg.Counter("mpi.reduce_chunks"),
		reduceChunkNs: reg.Histogram("mpi.reduce_chunk_ns"),
	}
}

// setTelemetry gives a fresh endpoint its rank's handles (nil for none):
// the world endpoint from RunTransport, a Split child from its parent.
func (c *Comm) setTelemetry(t *commTelemetry) {
	if c.tm = t; t != nil {
		c.bytesSent.SetParent(t.sendBytes)
		c.bytesRecv.SetParent(t.recvBytes)
		c.reduceChunks.SetParent(t.reduceChunks)
	}
}

// group is the immutable state the endpoints of one communicator share:
// the transport every message rides, the communicator's id on it, the
// world-wide teardown signal and the mapping back to world coordinates.
// Ranks of one process share the world group; a Split gives each member
// its own (identical) copy, since members may live in different processes.
type group struct {
	tr Transport
	td *teardown
	// commID identifies this communicator on the transport (0 is the
	// world; Split descendants derive deterministic non-zero ids).
	commID int32
	// regRanks maps communicator-local rank → world (registry) rank: the
	// transport addresses world ranks, and flow records from Split
	// sub-communicators pair up with world-communicator records in one id
	// space.
	regRanks []int
	// msgID is the message-id source — the telemetry Run's counter when
	// the world has telemetry (unique across supervised relaunches), a
	// private one otherwise. Split descendants share the parent's.
	msgID *atomic.Int64
}

func newGroup(tr Transport, td *teardown, msgID *atomic.Int64, commID int32, regRanks []int) *group {
	return &group{tr: tr, td: td, msgID: msgID, commID: commID, regRanks: regRanks}
}

func (g *group) comm(rank int) *Comm {
	return &Comm{rank: rank, size: len(g.regRanks), group: g}
}

// teardown is the world-level abort signal: Run trips it when any rank's
// function returns an error, waking every blocked point-to-point operation
// (on the world communicator and every Split descendant) with ErrRankLost
// instead of leaving them deadlocked on a rank that will never speak
// again. The signal fires once and only ever closes — late observers see
// the same torn-down world.
type teardown struct {
	once sync.Once
	ch   chan struct{}

	// mu guards lost: the world ranks whose own functions failed — the
	// culprits of the teardown, as opposed to the ranks that merely
	// observed it. RunWith records a rank here (before tripping the
	// signal) when its error is not itself ErrRankLost, so the
	// RankLostError every blocked peer wakes with can name the dead.
	mu   sync.Mutex
	lost []int
}

func newTeardown() *teardown { return &teardown{ch: make(chan struct{})} }

func (t *teardown) trip() { t.once.Do(func() { close(t.ch) }) }

// markLost records a world rank as a teardown culprit (idempotent).
func (t *teardown) markLost(rank int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.lost {
		if r == rank {
			return
		}
	}
	t.lost = append(t.lost, rank)
}

// lostRanks returns a sorted copy of the culprit set (nil when empty).
func (t *teardown) lostRanks() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lost) == 0 {
		return nil
	}
	out := append([]int(nil), t.lost...)
	sort.Ints(out)
	return out
}

// Interceptor observes the point-to-point path before the transport
// operation runs. internal/fault implements it to inject message-layer
// faults and stalls; a nil interceptor costs one pointer check per
// operation. It is shown world ranks on every communicator, so a rule
// naming rank r means world rank r wherever the operation's communicator
// came from. Returning a non-nil error aborts the operation before any
// data moves, so communicator state stays consistent.
type Interceptor interface {
	BeforeSend(rank, dst, tag int) error
	BeforeRecv(rank, src, tag int) error
}

// ErrRankLost is the sentinel (matched via errors.Is) for any failure
// caused by a dead or unreachable peer: a point-to-point deadline expiring
// or the world tearing down mid-operation. Collectives surface it instead
// of hanging, which is what lets a 1,024-rank run observe a node loss as a
// typed error within one deadline rather than as a stuck job.
var ErrRankLost = errors.New("mpi: rank lost")

// RankLostError carries the coordinates of a lost-rank observation.
type RankLostError struct {
	Rank int           // the rank that observed the loss
	Peer int           // the peer it was exchanging with
	Op   string        // "send" or "recv"
	Wait time.Duration // deadline that expired; 0 when the world tore down
	// Lost names the world ranks whose own failures caused the teardown,
	// sorted ascending — who actually died, as opposed to Peer, which is
	// merely who this rank was talking to when the world collapsed.
	// Populated on teardown-path errors only: a deadline expiry cannot
	// attribute the stall (the peer may be slow, not dead), so Lost stays
	// nil there. Supervisors use LostRanks to size the shrunk re-plan.
	Lost []int
}

func (e *RankLostError) Error() string {
	peer := fmt.Sprintf("rank %d", e.Peer)
	if e.Peer < 0 {
		peer = "the collective"
	}
	if e.Wait > 0 {
		return fmt.Sprintf("mpi: rank %d: %s with %s timed out after %v (rank lost)",
			e.Rank, e.Op, peer, e.Wait)
	}
	if len(e.Lost) > 0 {
		return fmt.Sprintf("mpi: rank %d: %s with %s aborted by world teardown (lost ranks %v)",
			e.Rank, e.Op, peer, e.Lost)
	}
	return fmt.Sprintf("mpi: rank %d: %s with %s aborted by world teardown (rank lost)",
		e.Rank, e.Op, peer)
}

// Is makes errors.Is(err, ErrRankLost) match.
func (e *RankLostError) Is(target error) bool { return target == ErrRankLost }

// LostRanks walks err's whole tree — including errors.Join aggregates and
// fmt.Errorf wrapping — and returns the sorted union of world ranks named
// lost by any RankLostError inside. Empty means the error carries no loss
// attribution (a deadline expiry, or a failure unrelated to rank death).
func LostRanks(err error) []int {
	set := map[int]struct{}{}
	collectLost(err, set)
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func collectLost(err error, set map[int]struct{}) {
	if err == nil {
		return
	}
	var rle *RankLostError
	if errors.As(err, &rle) {
		for _, r := range rle.Lost {
			set[r] = struct{}{}
		}
	}
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		for _, child := range u.Unwrap() {
			collectLost(child, set)
		}
	case interface{ Unwrap() error }:
		collectLost(u.Unwrap(), set)
	}
}

// Options configures a world launched by RunWith.
type Options struct {
	// Deadline bounds every blocking point-to-point operation — and hence
	// every step of every collective — on the world communicator and its
	// Split descendants. A peer that does not produce (or consume) a
	// message within the deadline surfaces as ErrRankLost instead of a
	// hang. 0 waits forever (the classic MPI behaviour).
	Deadline time.Duration
	// Interceptor, when non-nil, observes every Send/Recv — the data path,
	// collectives included — before the transport operation (fault
	// injection). Split's formation exchange is world formation and is not
	// shown to it, so "the Nth send of rank r" names the same message
	// wherever the ranks live.
	Interceptor Interceptor
	// Telemetry, when non-nil, supplies each rank's registry: every
	// point-to-point operation records its latency and bytes there
	// (mpi.send_ns/mpi.bytes_sent and the recv equivalents), and the
	// chunked reduction its per-segment latency. Inherited by Split
	// descendants. Nil keeps the message path at one pointer check.
	Telemetry *telemetry.Run
}

// Run launches fn on n ranks of a fresh world communicator and waits for
// all of them, joining any errors (MPI_Init/Finalize equivalent).
func Run(n int, fn func(c *Comm) error) error {
	return RunWith(n, Options{}, fn)
}

// RunWith is Run with a configured world: the all-ranks-local case of
// RunTransport, over the in-process transport. Whatever the options, the
// world tears down cleanly: the first rank whose function returns an error
// (or panics) trips a world-wide teardown that wakes every rank blocked in
// a point-to-point operation or Split with ErrRankLost, so one dead rank can
// never deadlock the rest — every rank returns and RunWith joins their
// errors within a bounded number of in-flight operations.
func RunWith(n int, opt Options, fn func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", n)
	}
	return RunTransport(TransportWorld{Size: n, Local: identity(n), Transport: newLocalTransport()}, opt, fn)
}

// identity returns the ranks 0..n-1.
func identity(n int) []int {
	ranks := make([]int, n)
	for r := range ranks {
		ranks[r] = r
	}
	return ranks
}

// Rank returns this endpoint's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Stats returns this rank's traffic on this communicator so far.
func (c *Comm) Stats() Stats {
	return Stats{
		BytesSent: c.bytesSent.Value(), BytesRecv: c.bytesRecv.Value(),
		MessagesSent: c.msgsSent.Value(), MessagesRecv: c.msgsRecv.Value(),
		ReduceChunks: c.reduceChunks.Value(),
	}
}

// Send delivers data to rank dst with the given tag. Sends are buffered,
// SendWindow messages per communicator and peer in every world; a full
// buffer blocks until the receiver drains it, like MPI_Send's rendezvous
// mode. A blocked send wakes with ErrRankLost when the world tears down or
// the endpoint's deadline expires. The caller gives the
// slice up: a local receiver gets this very slice; a remote send keeps it
// as the frame body until the peer acknowledges the frame, then returns it
// to the arena (see PutScratch). Either way the caller must not touch it
// again.
func (c *Comm) Send(dst, tag int, data []float32) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: send to rank %d outside world of %d", dst, c.size)
	}
	if dst == c.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", c.rank)
	}
	if c.icept != nil {
		if err := c.icept.BeforeSend(c.group.regRanks[c.rank], c.group.regRanks[dst], tag); err != nil {
			return err
		}
	}
	var t0 time.Time
	var msgID int64
	if c.tm != nil {
		t0 = time.Now()
		msgID = c.group.msgID.Add(1)
	}
	if err := c.send(dst, Message{Tag: tag, ID: msgID, Data: data}); err != nil {
		return err
	}
	nb := int64(len(data)) * 4
	c.bytesSent.Add(nb)
	c.msgsSent.Inc()
	if t := c.tm; t != nil {
		t.sendNs.ObserveSince(t0)
		t.reg.RecordFlow(telemetry.FlowRecord{
			MsgID: msgID, Kind: telemetry.FlowSend,
			Src: c.group.regRanks[c.rank], Dst: c.group.regRanks[dst],
			Tag: tag, Bytes: nb,
			Start: t.reg.SinceEpoch(t0), End: t.reg.SinceEpoch(time.Now()),
		})
	}
	return nil
}

// send hands one message to the transport: the whole of Split's formation
// exchange, and the part of Send below the interceptor and the counters.
func (c *Comm) send(dst int, m Message) error {
	g := c.group
	err := g.tr.Send(g.commID, g.regRanks[c.rank], g.regRanks[dst], m, c.deadline, g.td.ch)
	return c.wrapTransportErr(err, dst, "send")
}

// Recv blocks for the next message from rank src and verifies its tag,
// catching protocol mismatches immediately instead of corrupting data. A
// blocked receive wakes with ErrRankLost when the world tears down or the
// endpoint's deadline expires — a dead or stalled peer surfaces as a typed
// error, never a hang.
func (c *Comm) Recv(src, tag int) ([]float32, error) {
	if src < 0 || src >= c.size {
		return nil, fmt.Errorf("mpi: recv from rank %d outside world of %d", src, c.size)
	}
	if src == c.rank {
		return nil, fmt.Errorf("mpi: rank %d receiving from itself", c.rank)
	}
	if c.icept != nil {
		if err := c.icept.BeforeRecv(c.group.regRanks[c.rank], c.group.regRanks[src], tag); err != nil {
			return nil, err
		}
	}
	var t0 time.Time
	if c.tm != nil {
		t0 = time.Now()
	}
	m, err := c.recv(src, tag)
	if err != nil {
		return nil, err
	}
	nb := int64(len(m.Data)) * 4
	c.bytesRecv.Add(nb)
	c.msgsRecv.Inc()
	if t := c.tm; t != nil {
		t.recvNs.ObserveSince(t0)
		t.reg.RecordFlow(telemetry.FlowRecord{
			MsgID: m.ID, Kind: telemetry.FlowRecv,
			Src: c.group.regRanks[src], Dst: c.group.regRanks[c.rank],
			Tag: tag, Bytes: nb,
			Start: t.reg.SinceEpoch(t0), End: t.reg.SinceEpoch(time.Now()),
		})
	}
	return m.Data, nil
}

// recv is send's counterpart: the next message from src, tag-checked.
func (c *Comm) recv(src, tag int) (Message, error) {
	g := c.group
	m, err := g.tr.Recv(g.commID, g.regRanks[src], g.regRanks[c.rank], c.deadline, g.td.ch)
	if err != nil {
		return Message{}, c.wrapTransportErr(err, src, "recv")
	}
	if m.Tag != tag {
		return Message{}, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.Tag)
	}
	return m, nil
}

const (
	tagBarrier = -1
	tagReduce  = -3
	// tagSplit carries Split's formation exchange.
	tagSplit = -5
)

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm, O(log N) rounds).
func (c *Comm) Barrier() error {
	for step := 1; step < c.size; step <<= 1 {
		dst := (c.rank + step) % c.size
		src := (c.rank - step + c.size) % c.size
		if err := c.Send(dst, tagBarrier, nil); err != nil {
			return err
		}
		if _, err := c.Recv(src, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// reduceSegment runs one binomial-tree reduction over acc on a tree of size
// positions numbered relative to its root: pos is this rank's position and
// rankOf maps a position to the communicator rank that holds it. This is
// the fused receive+accumulate loop of every reduction — the flat tree and
// HierarchicalReduce's intra-node and inter-leader trees — so their
// per-element summation order is one and the same. One scratch slice (acc)
// lives across all rounds; each received buffer is a tree child's scratch,
// accumulated in place and returned to the arena. A position other than 0
// sends acc to its tree parent exactly once, as its last step, so acc must
// then be arena scratch whose ownership transfers on send; at position 0 it
// is the caller's output buffer.
func (c *Comm) reduceSegment(pos, size int, rankOf func(pos int) int, acc []float32) error {
	for step := 1; step < size; step <<= 1 {
		if pos&step != 0 {
			return c.Send(rankOf(pos-step), tagReduce, acc)
		}
		if pos+step < size {
			data, err := c.Recv(rankOf(pos+step), tagReduce)
			if err != nil {
				return err
			}
			if len(data) != len(acc) {
				return fmt.Errorf("mpi: reduce buffer length %d, expected %d", len(data), len(acc))
			}
			for i, x := range data {
				acc[i] += x
			}
			PutScratch(data)
		}
	}
	return nil
}

// ReduceChunked sums every rank's buf element-wise into root's buf over a
// binomial tree (O(log N) rounds — the communication bound of Table 2's
// last row); non-root buffers are left unmodified. Called on a group
// communicator created by Split, it is the paper's segmented MPI_Reduce.
// The buffer is split into ⌈len/chunk⌉ segments that are pipelined through
// the tree: because sends are buffered, a leaf posts segment c and
// immediately starts segment c+1 while its parent is still accumulating
// segment c — round k of segment c overlaps round k−1 of segment c+1,
// hiding tree latency behind accumulation exactly like the paper's
// segmented reduction hides communication behind compute. The chunking
// leaves the per-element summation order alone, so every chunk size gives
// the same bits; chunk = len(buf) sends one message per tree edge. Segment
// traffic is counted per chunk in Stats (BytesSent/MessagesSent per
// segment message, ReduceChunks for forwarded segments).
func (c *Comm) ReduceChunked(root int, buf []float32, chunk int) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: reduce root %d outside world of %d", root, c.size)
	}
	if chunk <= 0 {
		return fmt.Errorf("mpi: chunk size %d must be positive", chunk)
	}
	rel := (c.rank - root + c.size) % c.size
	rankOf := func(pos int) int { return (pos + root) % c.size }
	nChunks := 1
	if len(buf) > 0 {
		nChunks = (len(buf) + chunk - 1) / chunk
	}
	for ci := 0; ci < nChunks; ci++ {
		lo := ci * chunk
		hi := min(lo+chunk, len(buf))
		seg := buf[lo:hi]
		acc := seg
		if rel != 0 {
			acc = GetScratch(len(seg))
			copy(acc, seg)
			c.reduceChunks.Inc()
		}
		var t0 time.Time
		if c.tm != nil {
			t0 = time.Now()
		}
		if err := c.reduceSegment(rel, c.size, rankOf, acc); err != nil {
			return err
		}
		if t := c.tm; t != nil {
			t.reduceChunkNs.ObserveSince(t0)
		}
	}
	return nil
}

// HierarchicalReduce performs the paper's two-level reduction
// (Section 4.4.2): ranks on the same "node" (consecutive groups of
// ranksPerNode) first reduce to their node leader over an intra-node
// binomial tree, then the leaders reduce to root over a binomial tree on
// leader indices. root must be a node leader. The result lands in root's
// buf; other buffers are unmodified. Both trees run ReduceChunked's loop
// over one arena scratch buffer.
//
// Both levels being binomial makes the combine grouping identical to the
// flat tree whenever ranksPerNode is a power of two that divides the
// communicator size (the deployment shape of Section 4.4.2), so in that
// regime the float32 result is bit-identical to ReduceChunked, not merely
// close. For other shapes the sum is still exact for exactly-representable
// inputs but may round differently.
func (c *Comm) HierarchicalReduce(root int, buf []float32, ranksPerNode int) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: reduce root %d outside world of %d", root, c.size)
	}
	if ranksPerNode <= 0 {
		return fmt.Errorf("mpi: ranksPerNode %d must be positive", ranksPerNode)
	}
	if root%ranksPerNode != 0 {
		return fmt.Errorf("mpi: hierarchical root %d is not a node leader (rpn=%d)", root, ranksPerNode)
	}
	leader := c.rank / ranksPerNode * ranksPerNode
	acc := buf
	if c.rank != root {
		acc = GetScratch(len(buf))
		copy(acc, buf)
	}
	// Intra-node tree rooted at the leader: only ranks of the same node
	// exchange messages, preserving the two-level communication pattern
	// (these are the "cheap" intra-node links). A member that is not the
	// leader has handed its partial on when the tree returns.
	q := c.rank - leader
	nodeRank := func(pos int) int { return leader + pos }
	if err := c.reduceSegment(q, min(ranksPerNode, c.size-leader), nodeRank, acc); err != nil || q != 0 {
		return err
	}
	// Only leaders reach the inter-leader tree.
	nLeaders := (c.size + ranksPerNode - 1) / ranksPerNode
	rootIdx := root / ranksPerNode
	leaderRank := func(pos int) int { return (pos + rootIdx) % nLeaders * ranksPerNode }
	return c.reduceSegment((leader/ranksPerNode-rootIdx+nLeaders)%nLeaders, nLeaders, leaderRank, acc)
}
