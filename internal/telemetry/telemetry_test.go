package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if reg.Counter("c") != c {
		t.Fatal("same name must return the same counter")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	h := reg.HistogramWith("h", []int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	s := reg.Snapshot()
	hs := s.Histograms["h"]
	if hs.Count != 3 || hs.Sum != 555 {
		t.Fatalf("histogram count=%d sum=%d, want 3/555", hs.Count, hs.Sum)
	}
	want := []int64{1, 1, 1} // one per bucket incl. overflow
	for i, n := range hs.Counts {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	c.Add(1)
	c.Inc()
	g.Set(5)
	h.Observe(9)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	end := reg.Span("x", 0)
	end()
	if reg.Spans() != nil {
		t.Fatal("nil registry must have no spans")
	}
	if !reg.Snapshot().Empty() {
		t.Fatal("nil registry snapshot must be empty")
	}

	var run *Run
	if run.Rank(0) != nil || run.Shared() != nil || run.Ranks() != 0 || run.Snapshots() != nil {
		t.Fatal("nil Run must hand out nil registries and no snapshots")
	}
}

// TestDisabledPathAllocs pins the overhead contract: with telemetry off
// (nil handles) every instrumented operation is a no-op that allocates
// nothing.
func TestDisabledPathAllocs(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("disabled handle ops allocate %v/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		end := reg.Span("x", 1)
		end()
	}); n != 0 {
		t.Fatalf("disabled span allocates %v/run, want 0", n)
	}
}

// TestConcurrentRegistry hammers one registry from GOMAXPROCS goroutines
// so the race detector can audit every path: handle resolution, counter
// and histogram updates, span recording, and concurrent snapshots.
func TestConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("depth").Set(int64(i))
				reg.Histogram("lat").Observe(int64(i))
				end := reg.Span("work", i)
				end()
				if i%50 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := reg.Snapshot()
	want := int64(workers * iters)
	if got := s.Counters["shared"]; got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := s.Histograms["lat"].Count; got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	if got := len(s.Spans); got != int(want) {
		t.Fatalf("spans = %d, want %d", got, want)
	}
}

// The parent link is what makes an owner's view and the registry's total one
// count: a child adds to both by one call, two children of one parent start
// at zero each while the parent accumulates over both, linking moves no
// counts, and nil on either side of the link is inert.
func TestCounterParent(t *testing.T) {
	reg := NewRegistry()
	parent := reg.Counter("device.h2d_bytes")

	var first, second Counter
	first.Add(5) // before the link: the owner's alone
	first.SetParent(parent)
	first.Add(7)
	first.Inc()
	if first.Value() != 13 || parent.Value() != 8 {
		t.Fatalf("after linking: child %d parent %d, want 13 and 8", first.Value(), parent.Value())
	}
	second.SetParent(parent) // a later attempt's owner
	second.Add(2)
	if second.Value() != 2 || first.Value() != 13 || parent.Value() != 10 {
		t.Fatalf("second child %d first %d parent %d, want 2, 13, 10", second.Value(), first.Value(), parent.Value())
	}
	if got := reg.Snapshot().Counters["device.h2d_bytes"]; got != 10 {
		t.Fatalf("snapshot carries %d, want the parent's 10", got)
	}

	// A nil parent — what a nil registry hands out — is a standalone counter.
	var off *Registry
	var alone Counter
	alone.SetParent(off.Counter("x"))
	alone.Add(3)
	if alone.Value() != 3 {
		t.Fatalf("standalone counter = %d, want 3", alone.Value())
	}
	// Detaching stops the flow without touching either value.
	first.SetParent(nil)
	first.Add(1)
	if first.Value() != 14 || parent.Value() != 10 {
		t.Fatalf("after detaching: child %d parent %d, want 14 and 10", first.Value(), parent.Value())
	}
	// A nil child ignores the link like every other operation.
	var none *Counter
	none.SetParent(parent)
	none.Add(9)
	if none.Value() != 0 || parent.Value() != 10 {
		t.Fatalf("nil child leaked into its parent: %d", parent.Value())
	}
	if n := testing.AllocsPerRun(100, func() { second.Add(1) }); n != 0 {
		t.Fatalf("a linked Add allocates %v/run, want 0", n)
	}
}

// Children of one parent are added to from different goroutines (the ranks'
// devices under one shared registry counter, the workers of one device):
// every count must arrive in both, and the race detector audits the path.
func TestCounterParentConcurrent(t *testing.T) {
	var parent Counter
	const owners, adders, iters = 4, 4, 500
	children := make([]Counter, owners)
	var wg sync.WaitGroup
	for i := range children {
		children[i].SetParent(&parent)
		for a := 0; a < adders; a++ {
			wg.Add(1)
			go func(c *Counter) {
				defer wg.Done()
				for k := 0; k < iters; k++ {
					c.Add(2)
				}
			}(&children[i])
		}
	}
	wg.Wait()
	for i := range children {
		if got := children[i].Value(); got != 2*adders*iters {
			t.Errorf("child %d = %d, want %d", i, got, 2*adders*iters)
		}
	}
	if got := parent.Value(); got != 2*owners*adders*iters {
		t.Errorf("parent = %d, want %d", got, 2*owners*adders*iters)
	}
}

func TestRunSharedEpoch(t *testing.T) {
	run := NewRun(3)
	if run.Ranks() != 3 {
		t.Fatalf("Ranks() = %d, want 3", run.Ranks())
	}
	for r := 0; r < 3; r++ {
		if reg := run.Rank(r); reg == nil || reg.Rank() != r {
			t.Fatalf("Rank(%d) missing or mislabelled", r)
		}
	}
	if run.Rank(3) != nil || run.Rank(-1) != nil {
		t.Fatal("out-of-range ranks must degrade to nil registries")
	}
	if run.Shared().Rank() != SharedRank {
		t.Fatalf("shared registry rank = %d, want %d", run.Shared().Rank(), SharedRank)
	}
	run.Rank(0).Counter("x").Inc()
	run.Rank(2).Counter("x").Add(5)
	// Shared registry silent: snapshots cover exactly the ranks.
	if snaps := run.Snapshots(); len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3 (silent shared registry omitted)", len(snaps))
	}
	run.Shared().Counter("io").Inc()
	snaps := run.Snapshots()
	if len(snaps) != 4 || snaps[3].Rank != SharedRank {
		t.Fatalf("shared snapshot must append last, got %d snaps", len(snaps))
	}
}

func TestAggregateCounters(t *testing.T) {
	snaps := []Snapshot{
		{Rank: 0, Counters: map[string]int64{"a": 10, "b": 1}},
		{Rank: 1, Counters: map[string]int64{"a": 30}},
		{Rank: SharedRank, Counters: map[string]int64{"a": 999}},
	}
	skew := AggregateCounters(snaps)
	a := skew["a"]
	if a.Min != 10 || a.Max != 30 || a.Mean != 20 || a.Ranks != 2 {
		t.Fatalf("skew a = %+v, want min 10 max 30 mean 20 over 2 ranks", a)
	}
	// b is absent from rank 1: counts as 0 so skew shows the imbalance.
	b := skew["b"]
	if b.Min != 0 || b.Max != 1 || b.Mean != 0.5 {
		t.Fatalf("skew b = %+v, want min 0 max 1 mean 0.5", b)
	}
	names := SortedCounterNames(snaps)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("sorted names = %v", names)
	}
	if AggregateCounters(nil) != nil {
		t.Fatal("no snapshots must aggregate to nil")
	}
}

func TestSpanRecording(t *testing.T) {
	reg := NewRegistry()
	end := reg.Span("load", 7)
	time.Sleep(time.Millisecond)
	end()
	spans := reg.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "load" || s.Batch != 7 {
		t.Fatalf("span = %+v", s)
	}
	if s.End <= s.Start {
		t.Fatalf("span must have positive duration, got [%v, %v]", s.Start, s.End)
	}
	// An opened but never closed span is not recorded.
	_ = reg.Span("orphan", 0)
	if got := len(reg.Spans()); got != 1 {
		t.Fatalf("unclosed span leaked into the record (%d spans)", got)
	}
}
