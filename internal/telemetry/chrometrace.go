package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file renders run snapshots as Chrome trace_event JSON — the
// "JSON Array Format" understood by chrome://tracing and Perfetto — with
// one process per rank and one thread (track) per span name, so a
// distributed run opens as the paper's Figure 10: rank timelines stacked,
// each with its load/filter/backproject/reduce/store tracks plus whatever
// the fault layer recorded (retry, backoff). Flow records additionally
// become per-rank mpi.send / mpi.recv tracks whose slices are linked by
// flow events (ph "s" on the sender, ph "f" with bp "e" on the receiver,
// matched by msg id), so Perfetto draws the cross-rank causal arrows.
// Field order within an event is fixed by the struct definitions below
// and events are sorted by timestamp, so the output is byte-stable for
// identical snapshots (the golden test pins it).

// traceSpanEvent is one complete ("ph":"X") duration event. Timestamps
// are microseconds with sub-µs precision preserved as fractions.
type traceSpanEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args"`
}

type traceSpanArgs struct {
	Batch int `json:"batch"`
}

// traceFlowArgs annotates the mpi.send / mpi.recv carrier slices with the
// flow record they render.
type traceFlowArgs struct {
	MsgID int64 `json:"msg_id"`
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Tag   int   `json:"tag"`
	Bytes int64 `json:"bytes"`
}

// traceFlowEvent is one flow phase event: "s" starts a flow at the send
// slice, "f" (with bp "e") finishes it inside the matching recv slice.
// Viewers bind the arrow endpoints to the enclosing duration slice on the
// same (pid, tid), which is why every flow event is co-located with a
// carrier slice.
type traceFlowEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	ID   int64   `json:"id"`
	BP   string  `json:"bp,omitempty"`
}

// traceMetaEvent names a process (rank) or thread (track).
type traceMetaEvent struct {
	Name string        `json:"name"`
	Ph   string        `json:"ph"`
	Pid  int           `json:"pid"`
	Tid  int           `json:"tid"`
	Args traceMetaArgs `json:"args"`
}

type traceMetaArgs struct {
	Name string `json:"name"`
}

// tracePid maps a snapshot's rank label to a trace process id. Shared
// snapshots (SharedRank) get their own process after the last rank.
func tracePid(rank, nSnaps int) int {
	if rank == SharedRank {
		return nSnaps // one past the largest possible rank
	}
	return rank
}

// Track names the flow carrier slices live on.
const (
	flowSendTrack = "mpi.send"
	flowRecvTrack = "mpi.recv"
	flowEventName = "mpi.msg"
)

// traceEvent is the sortable union of span, carrier and flow events.
type traceEvent struct {
	ts   float64
	pid  int
	tid  int
	name string
	// ord breaks full ties deterministically: X slices before "s" flow
	// starts before "f" flow finishes on the same (ts, pid, tid, name).
	ord     int
	payload any
}

// WriteChromeTrace renders the snapshots' spans and flow records as
// trace_event JSON. Load the result in chrome://tracing or
// https://ui.perfetto.dev; one process per rank, one named track per span
// name, cross-rank arrows for matched message flows. Counters and
// histograms are not part of the trace — they go to the metrics artifact.
func WriteChromeTrace(w io.Writer, snaps []Snapshot) error {
	sendByID, _ := matchFlows(snaps)
	var metas []traceMetaEvent
	var events []traceEvent
	add := func(ts float64, pid, tid int, name string, ord int, payload any) {
		events = append(events, traceEvent{ts: ts, pid: pid, tid: tid, name: name, ord: ord, payload: payload})
	}
	usec := func(d int64) float64 { return float64(d) / 1e3 }
	for _, s := range snaps {
		pid := tracePid(s.Rank, len(snaps))
		pname := fmt.Sprintf("rank %d", s.Rank)
		if s.Rank == SharedRank {
			pname = "shared"
		}
		metas = append(metas, traceMetaEvent{
			Name: "process_name", Ph: "M", Pid: pid, Args: traceMetaArgs{Name: pname},
		})
		// Track ids are assigned per process from the sorted distinct span
		// names (the flow carrier tracks included), so the assignment is
		// deterministic for identical snapshots.
		names := map[string]struct{}{}
		for _, sp := range s.Spans {
			names[sp.Name] = struct{}{}
		}
		for _, f := range s.Flows {
			if f.Kind == FlowSend {
				names[flowSendTrack] = struct{}{}
			} else {
				names[flowRecvTrack] = struct{}{}
			}
		}
		order := make([]string, 0, len(names))
		for name := range names {
			order = append(order, name)
		}
		sort.Strings(order)
		tids := make(map[string]int, len(order))
		for i, name := range order {
			tids[name] = i + 1
			metas = append(metas, traceMetaEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
				Args: traceMetaArgs{Name: name},
			})
		}
		for _, sp := range s.Spans {
			add(usec(sp.Start.Nanoseconds()), pid, tids[sp.Name], sp.Name, 0, traceSpanEvent{
				Name: sp.Name, Cat: "span", Ph: "X",
				Ts:  usec(sp.Start.Nanoseconds()),
				Dur: usec((sp.End - sp.Start).Nanoseconds()),
				Pid: pid, Tid: tids[sp.Name],
				Args: traceSpanArgs{Batch: sp.Batch},
			})
		}
		for _, f := range s.Flows {
			track := flowSendTrack
			if f.Kind != FlowSend {
				track = flowRecvTrack
			}
			tid := tids[track]
			args := traceFlowArgs{MsgID: f.MsgID, Src: f.Src, Dst: f.Dst, Tag: f.Tag, Bytes: f.Bytes}
			add(usec(f.Start.Nanoseconds()), pid, tid, track, 0, traceSpanEvent{
				Name: track, Cat: "mpi", Ph: "X",
				Ts:  usec(f.Start.Nanoseconds()),
				Dur: usec((f.End - f.Start).Nanoseconds()),
				Pid: pid, Tid: tid, Args: args,
			})
			if f.MsgID <= 0 {
				continue // sender ran without telemetry; no id to pair on
			}
			switch f.Kind {
			case FlowSend:
				// Flow start anchors at the send slice's beginning.
				add(usec(f.Start.Nanoseconds()), pid, tid, flowEventName, 1, traceFlowEvent{
					Name: flowEventName, Cat: "mpi", Ph: "s",
					Ts: usec(f.Start.Nanoseconds()), Pid: pid, Tid: tid, ID: f.MsgID,
				})
			case FlowRecv:
				// Only matched receives finish a flow: an "f" without its
				// "s" would dangle (and the validator rejects it). The
				// finish anchors at the recv slice's end, which is never
				// earlier than the matched send's start.
				if _, ok := sendByID[f.MsgID]; !ok {
					continue
				}
				add(usec(f.End.Nanoseconds()), pid, tid, flowEventName, 2, traceFlowEvent{
					Name: flowEventName, Cat: "mpi", Ph: "f",
					Ts: usec(f.End.Nanoseconds()), Pid: pid, Tid: tid, ID: f.MsgID, BP: "e",
				})
			}
		}
	}
	// Monotonic timestamps: viewers tolerate unordered input, but a stable
	// sorted stream is what makes the artifact diffable and the golden test
	// possible. Ties break by (pid, tid, name, ord) for determinism.
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.ord < b.ord
	})

	var buf bytes.Buffer
	buf.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	writeEvent := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			buf.WriteString(",\n")
		}
		first = false
		buf.Write(raw)
		return nil
	}
	for _, m := range metas {
		if err := writeEvent(m); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := writeEvent(e.payload); err != nil {
			return err
		}
	}
	buf.WriteString("\n]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// chromeTraceFile mirrors the subset of the trace format the validator
// checks.
type chromeTraceFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		ID   int64   `json:"id"`
	} `json:"traceEvents"`
}

// TraceSummary is what ValidateChromeTrace reports about a well-formed
// trace: enough for the smoke gates to assert coverage (per-rank pids,
// flow pairing) without re-parsing.
type TraceSummary struct {
	// Events counts duration ("X") events, carrier slices included.
	Events int
	// FlowBegins and FlowEnds count "s" and "f" phase events; every end
	// matched a begin (the validator fails otherwise), so
	// FlowBegins − FlowEnds is the unmatched-send count — zero in a clean
	// run, positive when a receiver died before draining.
	FlowBegins int
	FlowEnds   int
	// Pids is the set of process ids that emitted duration events.
	Pids map[int]bool
}

// Unmatched is the number of flow begins that never finished.
func (s TraceSummary) Unmatched() int { return s.FlowBegins - s.FlowEnds }

// ValidateChromeTrace parses a trace artifact and checks the invariants
// the exporter guarantees: well-formed JSON, at least one duration event,
// non-negative durations, globally non-decreasing timestamps, and flow
// consistency — unique ids per flow phase, every finish ("f") paired with
// a begin ("s") no later than it. Unmatched begins are legal (fault runs
// lose receivers); callers that demand full pairing check
// Summary.Unmatched themselves (the fault-free trace-smoke gate does).
func ValidateChromeTrace(data []byte) (TraceSummary, error) {
	sum := TraceSummary{Pids: map[int]bool{}}
	var f chromeTraceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return sum, fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	// First pass: phase legality, timestamp monotonicity and flow-begin
	// collection. Begins are gathered before finishes are checked so a
	// finish sorted just ahead of its same-timestamp begin still pairs.
	lastTs := -1.0
	begins := map[int64]float64{}
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "X":
			if e.Dur < 0 {
				return sum, fmt.Errorf("telemetry: event %q has negative duration %g", e.Name, e.Dur)
			}
			sum.Pids[e.Pid] = true
			sum.Events++
		case "s":
			if e.ID <= 0 {
				return sum, fmt.Errorf("telemetry: flow begin %q has no id", e.Name)
			}
			if _, dup := begins[e.ID]; dup {
				return sum, fmt.Errorf("telemetry: duplicate flow begin id %d", e.ID)
			}
			begins[e.ID] = e.Ts
			sum.FlowBegins++
		case "f":
			if e.ID <= 0 {
				return sum, fmt.Errorf("telemetry: flow finish %q has no id", e.Name)
			}
		default:
			return sum, fmt.Errorf("telemetry: unexpected event phase %q", e.Ph)
		}
		if e.Ts < lastTs {
			return sum, fmt.Errorf("telemetry: event %q breaks timestamp monotonicity (%g after %g)", e.Name, e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
	// Second pass: every finish pairs with exactly one begin, no earlier
	// than it started.
	ends := map[int64]bool{}
	for _, e := range f.TraceEvents {
		if e.Ph != "f" {
			continue
		}
		if ends[e.ID] {
			return sum, fmt.Errorf("telemetry: duplicate flow finish id %d", e.ID)
		}
		start, ok := begins[e.ID]
		if !ok {
			return sum, fmt.Errorf("telemetry: flow finish id %d has no begin", e.ID)
		}
		if e.Ts < start {
			return sum, fmt.Errorf("telemetry: flow id %d finishes at %g before its begin at %g", e.ID, e.Ts, start)
		}
		ends[e.ID] = true
		sum.FlowEnds++
	}
	if sum.Events == 0 {
		return sum, fmt.Errorf("telemetry: trace contains no duration events")
	}
	return sum, nil
}
