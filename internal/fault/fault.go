// Package fault is the fault model of the distributed framework: a
// deterministic, seeded, rule-based injector that perturbs the pipeline's
// I/O and communication edges (load, store, send, recv) without touching
// the happy-path hot loops, plus the typed transient/permanent error
// classification and the retry policy the reconstruction drivers use to
// survive the transient class. At 1,024-GPU scale — the regime the paper's
// scalability claim targets — transient I/O errors, straggling ranks and
// node loss dominate wall-clock; every recovery path in internal/core and
// internal/mpi is exercised against this injector's seeded schedules so
// the behaviour under faults is as reproducible as the reconstruction
// itself.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Class splits injected (and classified) failures into the two kinds the
// recovery machinery distinguishes: Transient faults are expected to
// succeed on retry (a flaky PFS read, a dropped message), Permanent faults
// model dead ranks and unrecoverable corruption and must surface
// immediately.
type Class int

const (
	Transient Class = iota
	Permanent
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Operation names an injection point. The wrappers in this package tag
// their calls with these; rules match on them.
const (
	OpLoad  = "load"  // projection.Source.LoadRows
	OpStore = "store" // SlabSink.WriteSlab
	OpSend  = "send"  // mpi point-to-point send
	OpRecv  = "recv"  // mpi point-to-point receive
	OpKill  = "kill"  // scheduled rank death at a batch boundary (BatchStart)

	// Wire-level injection points, checked by the socket transport
	// (internal/mpi/nettrans) once per outgoing data frame, keyed by the
	// sending world rank. They act below the frame codec, so recovery runs
	// through the link's real reliability machinery (CRC, sequence gaps,
	// reconnect and replay) instead of an in-process shortcut. The rule's
	// Delay field applies to OpFrameDelay; the others ignore Class/Delay.
	OpFrameDrop    = "frame-drop"    // frame never written to the socket
	OpFrameCorrupt = "frame-corrupt" // frame bytes flipped after encode (CRC fails at peer)
	OpFrameDup     = "frame-dup"     // frame written twice (peer dedups by seq)
	OpFrameDelay   = "frame-delay"   // frame write stalled by Delay
	OpSever        = "sever"         // connection closed before the write (reconnect + replay)
)

// AnyRank in a Rule matches every rank.
const AnyRank = -1

// Every in Rule.Count makes the rule fire on all occurrences from Nth on.
const Every = -1

// ErrInjected is the sentinel matched (via errors.Is) by every error this
// package injects, so tests can tell injected faults from genuine bugs.
var ErrInjected = errors.New("fault: injected failure")

// Error is one injected fault. It carries the class the retry policy
// dispatches on and the (op, rank, occurrence) coordinates that produced
// it, so failures in a chaos schedule are self-describing.
type Error struct {
	Class Class
	Op    string
	Rank  int
	N     int // 1-based occurrence of (Op, Rank) that tripped the rule
}

func (e *Error) Error() string {
	if e.Op == OpKill {
		// For kills N is the batch boundary the rank died at, not an
		// occurrence count.
		return fmt.Sprintf("fault: injected rank-kill on rank %d at batch %d", e.Rank, e.N)
	}
	return fmt.Sprintf("fault: injected %s failure at %s #%d on rank %d", e.Class, e.Op, e.N, e.Rank)
}

// Is makes errors.Is(err, ErrInjected) match any injected fault.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Transient implements the classification convention IsTransient keys on.
func (e *Error) Transient() bool { return e.Class == Transient }

// IsTransient reports whether err is classified as retryable: any error in
// its chain declaring `Transient() bool` (injected faults, MarkTransient
// wrappers, net.Error-style implementations) decides the class. Unknown
// errors default to permanent — retrying an unclassified failure hides
// bugs, the opposite of what a chaos harness is for.
func IsTransient(err error) bool {
	var te interface{ Transient() bool }
	if errors.As(err, &te) {
		return te.Transient()
	}
	return false
}

// MarkTransient wraps err so IsTransient reports true, preserving the
// original chain for errors.Is/As. Wrapping nil returns nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err}
}

type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// Rule selects the occurrences of an operation to fault. Occurrences are
// counted per (Op, Rank) pair from 1; the rule fires on occurrences
// [Nth, Nth+Count), so {Op: OpLoad, Rank: 2, Nth: 3, Count: 2,
// Class: Transient} fails rank 2's third and fourth loads and then lets
// the retried fifth call through — exactly the shape a retry policy must
// absorb. Delay > 0 stalls the operation instead of failing it (a
// straggler), which is how "kill rank r at batch c" and "stall rank r at
// batch c" schedules are written against batch-aligned operations.
type Rule struct {
	Op    string        // operation to match (OpLoad, OpStore, OpSend, OpRecv)
	Rank  int           // rank to match, or AnyRank
	Nth   int           // 1-based first occurrence to fire on (0 means 1)
	Count int           // occurrences to fire on (0 means 1, Every means all ≥ Nth)
	Class Class         // Transient or Permanent (ignored for delays)
	Delay time.Duration // > 0: stall instead of failing
	// Phase, when non-empty, additionally scopes the rule to the named
	// scenario phase (PhaseWarmup, PhaseInject, PhaseRecovery): the rule
	// fires only on an operation whose stage serves a batch of that phase
	// under the armed PhaseSchedule (see phase.go). Occurrence counting is
	// unaffected — Nth/Count still index the full (Op, Rank) sequence — so
	// adding a phase window never renumbers the occurrences other rules
	// match on.
	Phase string
}

func (r Rule) matches(op string, rank, n int) bool {
	if r.Op != op || (r.Rank != AnyRank && r.Rank != rank) {
		return false
	}
	nth := r.Nth
	if nth <= 0 {
		nth = 1
	}
	if n < nth {
		return false
	}
	switch {
	case r.Count == Every:
		return true
	case r.Count <= 0:
		return n == nth
	default:
		return n < nth+r.Count
	}
}

// Injector evaluates a fixed rule set against per-(op, rank) occurrence
// counters. Decisions depend only on the rules and the counters — never on
// time or scheduling — so a schedule replays identically across runs, which
// is what lets the chaos matrix assert bit-identical recovery. The seed
// does not randomise the injector itself; it names the schedule and
// deterministically staggers injected delays so concurrent stragglers do
// not align (see Hit).
type Injector struct {
	seed  int64
	rules []Rule

	mu     sync.Mutex
	counts map[opRank]int
	kills  map[rankBatch]bool // scheduled kills not yet fired
	fired  int

	// Phase state (see phase.go): the armed schedule and the batch each
	// (rank, stage) has served up to.
	phases  *PhaseSchedule
	serving map[rankStage]int
}

type opRank struct {
	op   string
	rank int
}

type rankBatch struct{ rank, batch int }

type rankStage struct {
	rank  int
	stage string
}

// NewInjector builds an injector for one seeded schedule.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: append([]Rule(nil), rules...),
		counts: map[opRank]int{}, kills: map[rankBatch]bool{}, serving: map[rankStage]int{}}
}

// Seed returns the schedule's seed (a label for reports and reproduction).
func (in *Injector) Seed() int64 { return in.seed }

// Fired returns how many faults (errors or delays) the injector has
// injected so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// ScheduleKill arms a rank-kill fault: the first time rank reaches the
// boundary of batch (see BatchStart), it dies with a permanent OpKill
// error. Each scheduled kill fires at most once — deliberately, since
// after a supervised shrink the surviving ranks are renumbered and a
// persistent rule would murder an innocent successor on every attempt.
func (in *Injector) ScheduleKill(rank, batch int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.kills[rankBatch{rank, batch}] = true
}

// PendingKills returns how many scheduled kills have not fired yet.
func (in *Injector) PendingKills() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.kills)
}

// BatchStart is the load stage's Serve — rank reaching the boundary of
// batch — and returns the scheduled kill armed for exactly those
// coordinates, if any, consuming it. The drivers call it before the load
// stage's invocation of every batch, ahead of any span of the batch, which
// is what makes "kill rank r at batch b" a first-class chaos schedule
// rather than an approximation via per-operation counts. A nil injector is
// inert.
func (in *Injector) BatchStart(rank, batch int) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.serveLocked(rank, OpLoad, batch)
	key := rankBatch{rank, batch}
	armed := in.kills[key]
	if armed {
		delete(in.kills, key)
		in.fired++
	}
	in.mu.Unlock()
	if !armed {
		return nil
	}
	return &Error{Class: Permanent, Op: OpKill, Rank: rank, N: batch}
}

// Hit records one occurrence of op on rank and returns the injected error
// the first matching rule prescribes, or stalls for its delay. A nil
// injector is inert, so call sites can hold one unconditionally.
func (in *Injector) Hit(op string, rank int) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	key := opRank{op, rank}
	in.counts[key]++
	n := in.counts[key]
	phase := in.phaseOfLocked(rank, stageOf(op))
	var hit *Rule
	for i := range in.rules {
		r := &in.rules[i]
		if r.Phase != "" && r.Phase != phase {
			continue
		}
		if r.matches(op, rank, n) {
			hit = r
			in.fired++
			break
		}
	}
	in.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Delay > 0 {
		// Stagger concurrent stragglers deterministically by seed and rank
		// so a schedule never depends on which rank's sleep ends first.
		d := hit.Delay + time.Duration((in.seed+int64(rank))%7)*time.Millisecond/8
		time.Sleep(d)
		return nil
	}
	return &Error{Class: hit.Class, Op: op, Rank: rank, N: n}
}

// BeforeSend implements the mpi.Interceptor send hook; rank is the world
// rank.
func (in *Injector) BeforeSend(rank, dst, tag int) error { return in.Hit(OpSend, rank) }

// BeforeRecv implements the mpi.Interceptor receive hook; rank is the
// world rank.
func (in *Injector) BeforeRecv(rank, src, tag int) error { return in.Hit(OpRecv, rank) }
