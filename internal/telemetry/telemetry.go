// Package telemetry is the run-wide observability layer of the framework:
// a run-scoped registry of typed counters, gauges and fixed-bucket
// histograms plus a structured span recorder that every layer reports
// into — pipeline stages, projection-ring loads and evictions, collective latency and bytes, retry attempts and backoff
// sleeps, slab/journal I/O. Per-rank registries share one epoch (a Run) so
// their spans align on a common timeline, snapshots aggregate into
// min/max/mean skew per metric (stragglers are diagnosable), and exporters
// render Chrome trace_event JSON (chrometrace.go), a metrics artifact
// (metrics.go) and the Figure 10-style ASCII Gantt (gantt.go).
//
// The overhead contract: every method is nil-safe — a nil *Registry hands
// out nil handles, and operations on nil handles (Counter.Add, Gauge.Set,
// Histogram.Observe, the span closer) are single-branch no-ops with zero
// allocations — so instrumented layers hold handles unconditionally and a
// run without telemetry pays one pointer check per instrumented operation.
// Instrumentation sits at per-batch/per-op granularity only, never in
// per-sample hot loops.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric (bytes sent, retries, rows
// loaded). The zero value is ready to use; a nil Counter ignores updates.
//
// A counter may have a parent: every Add then lands in both, by the one
// call. That is how an owner's private view of a number (one device's
// ledger, one communicator's Stats, one attempt's batch count) and the
// registry's run-wide total are the same event counted once — the owner
// holds the child, which starts at zero with its owner, and the registry
// holds the parent, which accumulates over every child it is ever given.
// Without a parent a counter stands alone, which is what a run without
// telemetry gets.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// SetParent makes every later Add on c also add to p; nil detaches. It
// moves no counts: c keeps its value and p sees only what is added from
// here on. Set it before c is shared across goroutines — Add reads the
// link unsynchronised. Nil-safe no-op.
func (c *Counter) SetParent(p *Counter) {
	if c != nil {
		c.parent = p
	}
}

// Add increments the counter, and its parent if it has one, by n. Nil-safe
// no-op.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins metric (queue depth, resident rows). A nil
// Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value. Nil-safe no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last value set (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultDurationBuckets are the fixed histogram bucket upper bounds used
// for latency metrics, in nanoseconds: 1µs … 1s exponentially, plus an
// implicit overflow bucket. Fixed buckets keep Observe allocation-free and
// snapshots mergeable across ranks.
var DefaultDurationBuckets = []int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// Histogram counts observations into fixed buckets (bounds[i] is the
// inclusive upper bound of bucket i; the last bucket is the overflow). A
// nil Histogram ignores observations.
type Histogram struct {
	bounds []int64
	mu     sync.Mutex
	counts []int64
	sum    int64
	n      int64
}

// Observe records one value. Nil-safe no-op; never allocates.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// ObserveSince records the elapsed time from t0 in nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(t0)))
}

// Span is one recorded operation: a named interval on a rank's timeline,
// optionally tagged with the batch index it processed (-1 when the
// operation is not batch-scoped, e.g. a backoff sleep's attempt number
// reuses the field).
type Span struct {
	Name  string        `json:"name"`
	Batch int           `json:"batch"`
	Start time.Duration `json:"start_ns"` // relative to the run epoch
	End   time.Duration `json:"end_ns"`
}

// Registry is one rank's (or one shared component's) metric and span
// store. All methods are safe for concurrent use and nil-safe: a nil
// registry hands out nil handles and no-op span closers, so call sites
// never branch on "telemetry enabled".
type Registry struct {
	rank  int
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	spans  []Span

	flowMu sync.Mutex
	flows  []FlowRecord
}

// SharedRank labels the Run's shared registry (storage sinks, journals —
// components not owned by a single rank).
const SharedRank = -1

// NewRegistry returns a standalone registry with its own epoch (rank 0).
// Multi-rank runs use NewRun so all registries share one epoch.
func NewRegistry() *Registry {
	return &Registry{rank: 0, epoch: time.Now(), counters: map[string]*Counter{},
		gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
}

// Rank returns the rank this registry reports for (0 for nil).
func (r *Registry) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// Counter returns the named counter, creating it on first use. Nil
// registry returns a nil (inert) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry
// returns a nil (inert) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with DefaultDurationBuckets,
// creating it on first use. Nil registry returns a nil (inert) handle.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, DefaultDurationBuckets)
}

// HistogramWith is Histogram with explicit bucket bounds (ascending). The
// bounds of the first registration win; later calls return the existing
// histogram regardless of bounds.
func (r *Registry) HistogramWith(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// nopEnd is the closer a nil registry's Span returns: calling it does
// nothing and returning the shared instance allocates nothing.
var nopEnd = func() {}

// Span opens a named span tagged with batch and returns its closer. The
// span is recorded when the closer runs; an unclosed span is never
// recorded. Nil registry returns a shared no-op closer (zero allocation).
func (r *Registry) Span(name string, batch int) func() {
	if r == nil {
		return nopEnd
	}
	start := time.Since(r.epoch)
	return func() {
		end := time.Since(r.epoch)
		r.spanMu.Lock()
		r.spans = append(r.spans, Span{Name: name, Batch: batch, Start: start, End: end})
		r.spanMu.Unlock()
	}
}

// Spans returns a copy of the recorded spans (nil for a nil registry).
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Run is the run-wide collection of registries: one per rank plus one
// shared registry for components (sinks, journals) not owned by a single
// rank, all sharing one epoch so spans align on a common timeline. A nil
// Run hands out nil registries, so drivers thread it unconditionally.
type Run struct {
	ranks  []*Registry
	shared *Registry
	// msgID is the run-global monotone message-id source the mpi layer
	// draws from — owned by the Run (not by one mpi world) so message ids
	// stay unique across the relaunched worlds of a supervised run and
	// flow records never collide in the merged trace.
	msgID atomic.Int64
}

// NewRun builds registries for nRanks ranks plus the shared registry, all
// against one epoch.
func NewRun(nRanks int) *Run {
	if nRanks < 0 {
		nRanks = 0
	}
	epoch := time.Now()
	run := &Run{}
	mk := func(rank int) *Registry {
		return &Registry{rank: rank, epoch: epoch, counters: map[string]*Counter{},
			gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
	}
	for r := 0; r < nRanks; r++ {
		run.ranks = append(run.ranks, mk(r))
	}
	run.shared = mk(SharedRank)
	return run
}

// MsgIDCounter hands out the run's message-id source. A nil Run returns a
// fresh private counter, so the mpi layer can draw unconditionally.
func (run *Run) MsgIDCounter() *atomic.Int64 {
	if run == nil {
		return new(atomic.Int64)
	}
	return &run.msgID
}

// Ranks returns the number of per-rank registries (0 for nil).
func (run *Run) Ranks() int {
	if run == nil {
		return 0
	}
	return len(run.ranks)
}

// Rank returns rank r's registry, or nil when the Run is nil or r is out
// of range — so a layer handed an oversized or absent Run degrades to
// inert telemetry instead of panicking.
func (run *Run) Rank(r int) *Registry {
	if run == nil || r < 0 || r >= len(run.ranks) {
		return nil
	}
	return run.ranks[r]
}

// Shared returns the registry for run-level components shared across
// ranks (rank label SharedRank). Nil for a nil Run.
func (run *Run) Shared() *Registry {
	if run == nil {
		return nil
	}
	return run.shared
}

// Snapshots captures every registry: ranks in order, then the shared
// registry last (only when it recorded anything). Nil Run returns nil.
func (run *Run) Snapshots() []Snapshot {
	if run == nil {
		return nil
	}
	out := make([]Snapshot, 0, len(run.ranks)+1)
	for _, reg := range run.ranks {
		out = append(out, reg.Snapshot())
	}
	if s := run.shared.Snapshot(); !s.Empty() {
		out = append(out, s)
	}
	return out
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is one registry's exported state: plain data, safe to marshal,
// aggregate and diff after the run has finished.
type Snapshot struct {
	Rank       int                          `json:"rank"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []Span                       `json:"spans,omitempty"`
	Flows      []FlowRecord                 `json:"flows,omitempty"`
}

// Empty reports whether the snapshot recorded nothing at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 &&
		len(s.Histograms) == 0 && len(s.Spans) == 0 &&
		len(s.Flows) == 0
}

// Snapshot captures the registry's current state. Nil registries snapshot
// as an empty rank-0 snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{Rank: r.rank}
	r.mu.Lock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			h.mu.Lock()
			s.Histograms[name] = HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: append([]int64(nil), h.counts...),
				Sum:    h.sum,
				Count:  h.n,
			}
			h.mu.Unlock()
		}
	}
	r.mu.Unlock()
	s.Spans = r.Spans()
	s.Flows = r.Flows()
	return s
}

// Skew summarises one metric across ranks: the straggler diagnosis is
// Max/Min (or Max−Mean) at a glance.
type Skew struct {
	Min  int64   `json:"min"`
	Max  int64   `json:"max"`
	Mean float64 `json:"mean"`
	// Ranks is how many rank snapshots carried the metric.
	Ranks int `json:"ranks"`
}

// AggregateCounters folds the per-rank snapshots (shared snapshots with
// Rank == SharedRank are skipped) into per-counter skew. A metric absent
// from a rank counts as 0 for that rank so skew reflects true imbalance.
func AggregateCounters(snaps []Snapshot) map[string]Skew {
	names := map[string]struct{}{}
	nRanks := 0
	for _, s := range snaps {
		if s.Rank == SharedRank {
			continue
		}
		nRanks++
		for name := range s.Counters {
			names[name] = struct{}{}
		}
	}
	if nRanks == 0 || len(names) == 0 {
		return nil
	}
	out := make(map[string]Skew, len(names))
	for name := range names {
		sk := Skew{Ranks: nRanks}
		first := true
		var sum int64
		for _, s := range snaps {
			if s.Rank == SharedRank {
				continue
			}
			v := s.Counters[name]
			if first || v < sk.Min {
				sk.Min = v
			}
			if first || v > sk.Max {
				sk.Max = v
			}
			first = false
			sum += v
		}
		sk.Mean = float64(sum) / float64(nRanks)
		out[name] = sk
	}
	return out
}

// SortedCounterNames returns the union of counter names across snapshots
// in lexical order — the stable iteration order exporters and reports use.
func SortedCounterNames(snaps []Snapshot) []string {
	names := map[string]struct{}{}
	for _, s := range snaps {
		for name := range s.Counters {
			names[name] = struct{}{}
		}
	}
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
