// Critical-path extraction over a run's span DAG. The DAG is implicit:
// within a rank, spans follow program order on one timeline; across ranks,
// matched send→recv flow records are the causal edges. Rather than
// materialising nodes and edges, the walk runs backward in time from the
// globally latest span end: at any instant it stands on one rank, charges
// the interval back to the activity covering it (span → its class, gap →
// wait), and whenever a matched receive completes inside the current span
// it hops to the sending rank at the send's start, charging the hop as
// communication. Every step tiles the makespan exactly — the attribution
// sums to max(End) − min(Start) by construction, which is what the
// acceptance test pins — so "where did the time go" has a closed answer:
// compute, comm, credit-wait or retry-backoff, per rank × stage.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Attribution classes of critical-path time.
const (
	ClassCompute = "compute"
	ClassComm    = "comm"
	ClassWait    = "wait"
	ClassBackoff = "backoff"
)

// critClassOf maps a span name to its attribution class: the reduce stage
// and mpi carrier tracks are communication, backoff sleeps are the retry
// machinery, everything else (load/filter/backproject/store and
// any future stage) is compute.
func critClassOf(name string) string {
	switch {
	case name == "backoff":
		return ClassBackoff
	case name == "reduce" || strings.HasPrefix(name, "mpi."):
		return ClassComm
	default:
		return ClassCompute
	}
}

// CritStep is one segment of the critical path, in chronological order.
type CritStep struct {
	Rank  int           `json:"rank"`
	Stage string        `json:"stage"` // span name; "idle" for gaps, "msg" for cross-rank hops
	Class string        `json:"class"`
	Batch int           `json:"batch"` // batch tag of the covering span; -1 otherwise
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// CritShare aggregates critical-path time per (rank, stage, class).
type CritShare struct {
	Rank  int    `json:"rank"`
	Stage string `json:"stage"`
	Class string `json:"class"`
	Ns    int64  `json:"ns"`
}

// CriticalPath is the extracted path and its attribution.
type CriticalPath struct {
	// Makespan is the attributed window: latest span end − earliest span
	// start across rank registries. Steps tile it exactly.
	Makespan time.Duration `json:"makespan_ns"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	EndRank  int           `json:"end_rank"`
	Steps    []CritStep    `json:"steps"`
	// ByClass sums step durations per attribution class.
	ByClass map[string]time.Duration `json:"by_class_ns"`
	// Shares is the per-(rank, stage, class) breakdown, largest first.
	Shares []CritShare `json:"shares"`
	// CommFraction is ByClass[comm]/Makespan; WaitFraction is
	// ByClass[wait]/Makespan (gaps: a stage waiting on its queue, blocked
	// peers).
	CommFraction float64 `json:"comm_fraction"`
	WaitFraction float64 `json:"wait_fraction"`
}

// containerSpan reports span names that overlap the stage spans rather
// than interleave with them (fault-phase markers, supervisor attempts):
// the walk skips them so a long enclosing marker cannot mask the gaps
// and stages inside it.
func containerSpan(name string) bool {
	return strings.HasPrefix(name, "phase.") || strings.HasPrefix(name, "supervise.")
}

// ComputeCriticalPath extracts the critical path from a run's snapshots.
// Returns nil when no rank snapshot carries spans. Shared-registry
// snapshots are ignored (their spans are container markers, not rank
// work).
func ComputeCriticalPath(snaps []Snapshot) *CriticalPath {
	spansByRank := map[int][]Span{}
	recvsByRank := map[int][]FlowRecord{}
	sendByID, _ := matchFlows(snaps)
	var start, end time.Duration
	endRank := -1
	first := true
	for _, s := range snaps {
		if s.Rank == SharedRank {
			continue
		}
		for _, sp := range s.Spans {
			if containerSpan(sp.Name) {
				continue
			}
			spansByRank[s.Rank] = append(spansByRank[s.Rank], sp)
			if first || sp.Start < start {
				start = sp.Start
			}
			if first || sp.End > end {
				end = sp.End
				endRank = s.Rank
			} else if sp.End == end && endRank >= 0 && s.Rank < endRank {
				// Deterministic tie-break keeps the walk reproducible.
				endRank = s.Rank
			}
			first = false
		}
		for _, f := range s.Flows {
			if f.Kind == FlowRecv && f.MsgID > 0 {
				recvsByRank[s.Rank] = append(recvsByRank[s.Rank], f)
			}
		}
	}
	if first || end <= start {
		return nil
	}
	for r := range spansByRank {
		sp := spansByRank[r]
		sort.Slice(sp, func(i, j int) bool {
			if sp[i].Start != sp[j].Start {
				return sp[i].Start < sp[j].Start
			}
			return sp[i].End < sp[j].End
		})
	}
	for r := range recvsByRank {
		rc := recvsByRank[r]
		sort.Slice(rc, func(i, j int) bool { return rc[i].End < rc[j].End })
	}
	// Among spans starting before t, the walk wants the one reaching
	// furthest: overlapping spans (the pipelined executor's stages run
	// concurrently) make "latest start" not necessarily "latest end". Prefix argmax over End makes that O(log n)
	// per query.
	farthestTo := map[int][]int{}
	for r, sp := range spansByRank {
		idx := make([]int, len(sp))
		for i := range sp {
			idx[i] = i
			if i > 0 && sp[idx[i-1]].End >= sp[i].End {
				idx[i] = idx[i-1]
			}
		}
		farthestTo[r] = idx
	}

	// coveringSpan returns the span on rank reaching furthest among those
	// starting strictly before t, or nil when none start before t.
	coveringSpan := func(rank int, t time.Duration) *Span {
		sp := spansByRank[rank]
		i := sort.Search(len(sp), func(i int) bool { return sp[i].Start >= t })
		if i == 0 {
			return nil
		}
		return &sp[farthestTo[rank][i-1]]
	}
	// latestRecv returns the latest matched receive on rank with
	// lo < End ≤ t whose send started strictly before t (the strict bound
	// guarantees the walk makes progress on every hop).
	latestRecv := func(rank int, lo, t time.Duration) (FlowRecord, FlowRecord, bool) {
		rc := recvsByRank[rank]
		i := sort.Search(len(rc), func(i int) bool { return rc[i].End > t })
		for j := i - 1; j >= 0 && rc[j].End > lo; j-- {
			snd, ok := sendByID[rc[j].MsgID]
			if ok && snd.Start < t {
				return rc[j], snd, true
			}
		}
		return FlowRecord{}, FlowRecord{}, false
	}

	cp := &CriticalPath{Start: start, End: end, EndRank: endRank,
		Makespan: end - start, ByClass: map[string]time.Duration{}}
	step := func(rank int, stage, class string, batch int, lo, hi time.Duration) {
		if hi <= lo {
			return
		}
		cp.Steps = append(cp.Steps, CritStep{Rank: rank, Stage: stage, Class: class,
			Batch: batch, Start: lo, End: hi})
	}
	t, rank := end, endRank
	// The walk terminates: every branch strictly decreases t, and the cap
	// (2 per span and flow plus slack) guards degenerate inputs.
	maxSteps := 16
	for _, sp := range spansByRank {
		maxSteps += 2 * len(sp)
	}
	for _, rc := range recvsByRank {
		maxSteps += 2 * len(rc)
	}
	for t > start && len(cp.Steps) < maxSteps {
		sp := coveringSpan(rank, t)
		if sp == nil {
			// Nothing earlier on this rank: the remainder is startup wait.
			step(rank, "idle", ClassWait, -1, start, t)
			t = start
			break
		}
		if sp.End < t {
			// Gap after the rank's previous activity: queue/blocked wait.
			lo := max(sp.End, start)
			step(rank, "idle", ClassWait, -1, lo, t)
			t = lo
			continue
		}
		// Inside sp. A matched receive completing inside the current
		// window means the work after it depended on a remote sender —
		// charge the tail to the span, the transfer to comm, and hop.
		if rc, snd, ok := latestRecv(rank, sp.Start, t); ok {
			step(rank, sp.Name, critClassOf(sp.Name), sp.Batch, rc.End, t)
			hopLo := max(min(snd.Start, rc.End), start)
			step(rank, "msg", ClassComm, -1, hopLo, rc.End)
			rank = snd.Src
			t = hopLo
			continue
		}
		lo := max(sp.Start, start)
		step(rank, sp.Name, critClassOf(sp.Name), sp.Batch, lo, t)
		t = lo
	}
	if t > start {
		// Step cap hit (degenerate input): close the tiling so the sum
		// invariant survives.
		step(rank, "idle", ClassWait, -1, start, t)
	}
	// The walk ran backward; present the path forward.
	for i, j := 0, len(cp.Steps)-1; i < j; i, j = i+1, j-1 {
		cp.Steps[i], cp.Steps[j] = cp.Steps[j], cp.Steps[i]
	}
	type shareKey struct {
		rank  int
		stage string
		class string
	}
	shares := map[shareKey]int64{}
	for _, st := range cp.Steps {
		cp.ByClass[st.Class] += st.End - st.Start
		shares[shareKey{st.Rank, st.Stage, st.Class}] += int64(st.End - st.Start)
	}
	for k, ns := range shares {
		cp.Shares = append(cp.Shares, CritShare{Rank: k.rank, Stage: k.stage, Class: k.class, Ns: ns})
	}
	sort.Slice(cp.Shares, func(i, j int) bool {
		a, b := cp.Shares[i], cp.Shares[j]
		if a.Ns != b.Ns {
			return a.Ns > b.Ns
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Stage < b.Stage
	})
	if cp.Makespan > 0 {
		cp.CommFraction = float64(cp.ByClass[ClassComm]) / float64(cp.Makespan)
		cp.WaitFraction = float64(cp.ByClass[ClassWait]) / float64(cp.Makespan)
	}
	return cp
}

// AttributedTotal sums every step — equal to Makespan by construction;
// exported so tests and validators can assert the invariant cheaply.
func (cp *CriticalPath) AttributedTotal() time.Duration {
	var total time.Duration
	for _, st := range cp.Steps {
		total += st.End - st.Start
	}
	return total
}

// RenderTable prints the attribution the way ClusterReport embeds it: the
// class split on one line, then the top shares.
func (cp *CriticalPath) RenderTable(topN int) string {
	var b strings.Builder
	pct := func(c string) float64 {
		if cp.Makespan <= 0 {
			return 0
		}
		return 100 * float64(cp.ByClass[c]) / float64(cp.Makespan)
	}
	fmt.Fprintf(&b, "critical path: makespan %v ending on rank %d — compute %.1f%%, comm %.1f%%, wait %.1f%%, backoff %.1f%%\n",
		cp.Makespan.Round(time.Microsecond), cp.EndRank,
		pct(ClassCompute), pct(ClassComm), pct(ClassWait), pct(ClassBackoff))
	n := min(topN, len(cp.Shares))
	for i := 0; i < n; i++ {
		s := cp.Shares[i]
		fmt.Fprintf(&b, "  rank %2d %-12s %-8s %10v (%4.1f%%)\n",
			s.Rank, s.Stage, s.Class, time.Duration(s.Ns).Round(time.Microsecond),
			100*float64(s.Ns)/float64(cp.Makespan))
	}
	return b.String()
}
