package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Message is one point-to-point transfer: the tag, the world-global message
// id (0 when telemetry is off; the receiver copies it into its flow record,
// which pairs the two sides of a transfer into one causal edge without
// extra traffic) and the payload. A message carries a float32 slab segment
// in Data, or a few control ints in Ctl (Split's formation exchange is the
// only user), or nothing (a Barrier step) — never both.
type Message struct {
	Tag  int
	ID   int64
	Data []float32
	Ctl  []int
}

// Transport moves point-to-point messages between world ranks. Every
// Send/Recv of every world goes through one: RunWith supplies the
// in-process implementation below, package nettrans the socket one that
// lets ranks live in different OS processes.
//
// comm identifies the communicator the message belongs to (0 is the world;
// Split descendants derive deterministic ids), and src/dst are world ranks.
// A Transport must honour deadline (0 = wait forever) and the cancel
// channel (closed on world teardown), returning ErrTransportTimeout /
// ErrTransportCanceled respectively — the comm layer wraps those into
// RankLostError with the operation's coordinates. A transport that has
// declared peers dead returns a *PeerLostError naming them. A Send blocks
// while SendWindow messages of its (comm, src, dst) are not yet received.
//
// Ownership: a sent slice belongs to the transport until the receiver has
// it — a local receiver at once, a remote one when its acknowledgement
// releases the frame, and the socket transport then returns the slice to
// the arena. A received slice belongs to the receiver, who returns it to
// the arena when it is arena scratch.
type Transport interface {
	Send(comm int32, src, dst int, m Message, deadline time.Duration, cancel <-chan struct{}) error
	Recv(comm int32, src, dst int, deadline time.Duration, cancel <-chan struct{}) (Message, error)
}

// WorldTransport is the lifecycle contract RunTransport drives: beyond
// moving messages it reports remote rank death, accepts local culprit
// attribution for broadcast, and runs the end-of-attempt verdict exchange
// that makes every process of a multi-process world agree on the outcome.
type WorldTransport interface {
	Transport
	// PeerLost returns a channel delivering batches of world ranks the
	// transport has declared dead (heartbeat silence, connection death).
	// May return nil when the transport can never lose peers.
	PeerLost() <-chan []int
	// LocalLost announces that ranks hosted by this process failed for
	// their own reasons (culprits), so remote processes can tear down with
	// the same attribution.
	LocalLost(ranks []int)
	// Finish exchanges this process's attempt outcome with the rest of the
	// world and blocks for the agreed verdict. It returns the union of
	// world ranks lost anywhere this attempt (nil when the world finished
	// clean); err reports a verdict-exchange failure (e.g. the coordinator
	// died before deciding).
	Finish(localErr error) (lost []int, err error)
}

// Sentinels a Transport returns from Send/Recv when the operation's bounds
// fire; the comm layer translates them into RankLostError.
var (
	// ErrTransportTimeout reports that the per-operation deadline elapsed.
	ErrTransportTimeout = errors.New("mpi: transport deadline elapsed")
	// ErrTransportCanceled reports that the cancel channel closed (world
	// teardown) while the operation was blocked.
	ErrTransportCanceled = errors.New("mpi: transport operation canceled")
)

// PeerLostError is how a Transport reports that an operation failed
// because peer ranks are dead (as opposed to slow). Lost holds world
// ranks, sorted ascending.
type PeerLostError struct {
	Lost []int
}

func (e *PeerLostError) Error() string {
	return fmt.Sprintf("mpi: transport peers lost %v", e.Lost)
}

// wrapTransportErr translates a Transport failure into the typed errors
// the rest of the stack already understands. peer is comm-local.
func (c *Comm) wrapTransportErr(err error, peer int, op string) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, ErrTransportTimeout):
		return &RankLostError{Rank: c.rank, Peer: peer, Op: op, Wait: c.deadline}
	case errors.Is(err, ErrTransportCanceled):
		return &RankLostError{Rank: c.rank, Peer: peer, Op: op, Lost: c.group.td.lostRanks()}
	}
	var pl *PeerLostError
	if errors.As(err, &pl) {
		return &RankLostError{Rank: c.rank, Peer: peer, Op: op, Lost: uniqueSorted(pl.Lost)}
	}
	return err
}

// uniqueSorted returns a sorted, deduplicated copy of ranks (nil when
// empty), the canonical form every Lost slice carries.
func uniqueSorted(ranks []int) []int {
	if len(ranks) == 0 {
		return nil
	}
	set := map[int]struct{}{}
	for _, r := range ranks {
		set[r] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// TransportWorld describes this process's slice of a transport-backed
// world.
type TransportWorld struct {
	// Size is the total number of ranks across all processes.
	Size int
	// Local lists the world ranks hosted by this process (may be empty:
	// the process then only participates in the verdict exchange).
	Local []int
	// Transport carries every cross-rank message and the world lifecycle.
	Transport WorldTransport
	// MsgIDBase, when positive, raises the telemetry message-id counter to
	// at least this value so processes with separate telemetry runs mint
	// ids from disjoint ranges and flow records never collide across
	// per-process artifacts. In-process fleets sharing one telemetry Run
	// leave it 0 and keep globally paired flows.
	MsgIDBase int64
}

// RunTransport launches fn on this process's ranks of a world and waits for
// them; it is the one rank launcher (RunWith is its all-ranks-local case).
// The world teardown contract holds across process boundaries: a local rank
// failing marks itself as culprit and announces it through the transport;
// the transport declaring remote ranks dead trips the local teardown so
// blocked operations wake with the same typed RankLostError attribution a
// local death produces. After the local ranks return, the
// transport's verdict exchange folds the world-agreed lost set into the
// returned error, so LostRanks(err) computes the same set in every
// process and supervisors shrink identically.
func RunTransport(w TransportWorld, opt Options, fn func(c *Comm) error) error {
	if w.Size <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", w.Size)
	}
	if opt.Deadline < 0 {
		return fmt.Errorf("mpi: negative deadline %v", opt.Deadline)
	}
	if w.Transport == nil {
		return errors.New("mpi: RunTransport needs a transport")
	}
	for _, r := range w.Local {
		if r < 0 || r >= w.Size {
			return fmt.Errorf("mpi: local rank %d outside world of %d", r, w.Size)
		}
	}
	g := newGroup(w.Transport, newTeardown(), opt.Telemetry.MsgIDCounter(), 0, identity(w.Size))
	if w.MsgIDBase > 0 {
		// Lift, never lower: a shared counter already past the base (a
		// previous attempt of the same run) keeps its monotonicity.
		for {
			cur := g.msgID.Load()
			if cur >= w.MsgIDBase || g.msgID.CompareAndSwap(cur, w.MsgIDBase) {
				break
			}
		}
	}

	// Remote-death watcher: the transport's loss reports trip the local
	// teardown with the same culprit marking a local failure would.
	stopWatch := make(chan struct{})
	var watchWg sync.WaitGroup
	if lostCh := w.Transport.PeerLost(); lostCh != nil {
		watchWg.Add(1)
		go func() {
			defer watchWg.Done()
			for {
				select {
				case ranks, ok := <-lostCh:
					if !ok {
						return
					}
					for _, r := range ranks {
						g.td.markLost(r)
					}
					g.td.trip()
				case <-stopWatch:
					return
				}
			}
		}()
	}

	errs := make([]error, len(w.Local))
	var wg sync.WaitGroup
	for i, r := range w.Local {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
				if errs[i] != nil {
					// A rank failing for its own reasons is a culprit; one
					// failing with ErrRankLost is an observer of somebody
					// else's death and must not be blamed. Mark (and announce,
					// so remote teardowns carry the name too) before tripping,
					// so peers woken by the signal see the name.
					if !errors.Is(errs[i], ErrRankLost) {
						g.td.markLost(r)
						w.Transport.LocalLost([]int{r})
					}
					g.td.trip()
				}
			}()
			c := g.comm(r)
			c.deadline = opt.Deadline
			c.icept = opt.Interceptor
			c.setTelemetry(newCommTelemetry(opt.Telemetry.Rank(r)))
			errs[i] = fn(c)
		}(i, r)
	}
	wg.Wait()
	close(stopWatch)
	watchWg.Wait()

	localErr := errors.Join(errs...)
	worldLost, ferr := w.Transport.Finish(localErr)
	// Fold the world verdict in: ranks lost elsewhere this attempt get the
	// same typed attribution a local observer would have produced, so the
	// error tree yields identical LostRanks everywhere.
	if extra := uniqueSorted(worldLost); len(extra) > 0 {
		already := map[int]struct{}{}
		for _, r := range LostRanks(localErr) {
			already[r] = struct{}{}
		}
		missing := false
		for _, r := range extra {
			if _, ok := already[r]; !ok {
				missing = true
				break
			}
		}
		if missing || localErr == nil {
			localErr = errors.Join(localErr,
				&RankLostError{Rank: -1, Peer: -1, Op: "world", Lost: extra})
		}
	}
	if ferr != nil {
		localErr = errors.Join(localErr, ferr)
	}
	return localErr
}

// localTransport is the in-process WorldTransport, the world RunWith
// launches: one buffered channel per (comm, src, dst), created on first
// use. A message moves by reference — the receiver gets the sender's slice —
// and a full channel blocks the sender (SendWindow messages of
// back-pressure, like MPI_Send's rendezvous mode).
type localTransport struct {
	mu    sync.Mutex
	boxes map[localBoxKey]chan Message
}

type localBoxKey struct {
	comm     int32
	src, dst int
}

// SendWindow is how many messages a sender may run ahead of its receiver,
// per (comm, src, dst), in every Transport: enough for a ReduceChunked leaf
// to post the next segments while its tree parent still accumulates the
// current one (the pipelining that hides tree latency), few enough that a
// receiver that stopped draining is noticed within a handful of sends, and
// that what a sender holds in flight is bounded by the window, not by the
// length of the stream.
const SendWindow = 8

func newLocalTransport() *localTransport {
	return &localTransport{boxes: map[localBoxKey]chan Message{}}
}

func (t *localTransport) box(comm int32, src, dst int) chan Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := localBoxKey{comm, src, dst}
	ch, ok := t.boxes[k]
	if !ok {
		ch = make(chan Message, SendWindow)
		t.boxes[k] = ch
	}
	return ch
}

// Send implements Transport. When the deadline or the teardown fires on a
// full buffer, one last non-blocking attempt keeps the common "receiver
// drained just before dying" case lossless.
func (t *localTransport) Send(comm int32, src, dst int, m Message, deadline time.Duration, cancel <-chan struct{}) error {
	ch := t.box(comm, src, dst)
	select {
	case ch <- m: // fast path: buffer has room
		return nil
	default:
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		tm := time.NewTimer(deadline)
		defer tm.Stop()
		timeout = tm.C
	}
	err := ErrTransportCanceled
	select {
	case ch <- m:
		return nil
	case <-cancel:
	case <-timeout:
		err = ErrTransportTimeout
	}
	select {
	case ch <- m:
		return nil
	default:
		return err
	}
}

// Recv implements Transport, with the same final attempt as Send so a
// message that raced in is delivered rather than dropped.
func (t *localTransport) Recv(comm int32, src, dst int, deadline time.Duration, cancel <-chan struct{}) (Message, error) {
	ch := t.box(comm, src, dst)
	select {
	case m := <-ch: // fast path: message already buffered
		return m, nil
	default:
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		tm := time.NewTimer(deadline)
		defer tm.Stop()
		timeout = tm.C
	}
	err := ErrTransportCanceled
	select {
	case m := <-ch:
		return m, nil
	case <-cancel:
	case <-timeout:
		err = ErrTransportTimeout
	}
	select {
	case m := <-ch:
		return m, nil
	default:
		return Message{}, err
	}
}

// PeerLost implements WorldTransport: an in-process world never loses
// peers behind the comm layer's back.
func (t *localTransport) PeerLost() <-chan []int { return nil }

// LocalLost implements WorldTransport (no remote processes to notify).
func (t *localTransport) LocalLost(ranks []int) {}

// Finish implements WorldTransport: with every rank local, the local
// verdict is the world verdict.
func (t *localTransport) Finish(localErr error) ([]int, error) { return nil, nil }
