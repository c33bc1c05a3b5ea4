package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// replay from the benchmark's own files. Times are nanoseconds since the
// tracer was created. Parent is the id of the span that caused this one
// (-1 for the root); Rank is the MPI rank whose goroutine made the call
// (-1 for the launching goroutine). Work counts what the call processed,
// so rates are measured where the work happens.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rank     int    `json:"rank"`
	Work     int64  `json:"work,omitempty"`
	Unit     string `json:"unit,omitempty"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. Rank goroutines record concurrently.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, rank int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now,
		Parent: parent, Workload: t.workload, Rank: rank})
	return id
}

// end closes a span and attaches its work count.
func (t *tracer) end(id int, work int64, unit string) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Work, s.Unit = now, work, unit
}

// call records one span around fn.
func (t *tracer) call(name string, parent, rank int, work int64, unit string, fn func() error) error {
	id := t.begin(name, parent, rank)
	err := fn()
	t.end(id, work, unit)
	return err
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children of one parent may run
// concurrently (the rank spans under the world span), so the covered part
// is the union of their intervals, not their sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// sumByName adds up the durations and work counts of the spans called
// name on the given rank's track; rank < -1 selects every track.
func sumByName(spans []span, name string, rank int) (seconds float64, work int64) {
	for _, s := range spans {
		if s.Name == name && (rank < -1 || s.Rank == rank) {
			seconds += float64(s.End-s.Start) / 1e9
			work += s.Work
		}
	}
	return seconds, work
}

const allRanks = -2

func writeTrace(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
