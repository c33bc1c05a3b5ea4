package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// SpanStats summarises a span set: the wall-clock window it covers and
// the per-track busy time. The two measure different things — Total is
// last-end minus first-start (wall clock), Busy sums span durations per
// name and can exceed Total when spans of one name overlap (a set that
// merges several ranks' spans) — which is exactly the distinction the
// utilization helpers quantify.
type SpanStats struct {
	// First is the earliest span start, the origin the Gantt normalises to.
	First time.Duration
	// Total is the wall-clock window from the first span's start to the
	// last span's end.
	Total time.Duration
	// Busy sums span durations per span name.
	Busy map[string]time.Duration
}

// ComputeSpanStats folds spans into their stats. Empty input returns a
// zero value with a non-nil Busy map.
func ComputeSpanStats(spans []Span) SpanStats {
	st := SpanStats{Busy: map[string]time.Duration{}}
	first := true
	var last time.Duration
	for _, s := range spans {
		if first || s.Start < st.First {
			st.First = s.Start
		}
		if first || s.End > last {
			last = s.End
		}
		first = false
		st.Busy[s.Name] += s.End - s.Start
	}
	if !first {
		st.Total = last - st.First
	}
	return st
}

// Idle returns Total − Busy[name], clamped at zero: the wall-clock time
// the named track spent waiting rather than working. For a track whose Busy
// exceeds Total (overlapping spans of one name) idle time is zero.
func (st SpanStats) Idle(name string) time.Duration {
	idle := st.Total - st.Busy[name]
	if idle < 0 {
		return 0
	}
	return idle
}

// Utilization returns Busy[name]/Total (0 when the window is empty). A
// track whose spans overlap can exceed 1: N concurrent spans approach N.
func (st SpanStats) Utilization(name string) float64 {
	if st.Total <= 0 {
		return 0
	}
	return float64(st.Busy[name]) / float64(st.Total)
}

// RenderGantt draws the Figure 10-style timeline: one row per name in
// order, time on the X axis scaled to width columns, each span drawn with
// its batch index modulo 10, and the track's utilization (busy time over
// the trace's wall-clock window — see SpanStats) appended to the row.
func RenderGantt(spans []Span, order []string, width int) string {
	if width < 10 {
		width = 10
	}
	st := ComputeSpanStats(spans)
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	nameW := 0
	for _, s := range order {
		if len(s) > nameW {
			nameW = len(s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  total %v\n", nameW, "", st.Total.Round(time.Millisecond))
	for _, name := range order {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range spans {
			if s.Name != name {
				continue
			}
			// A zero-length window (instantaneous spans only) still renders:
			// every span collapses to the first column instead of dividing
			// by the zero total.
			var lo, hi int
			if st.Total > 0 {
				lo = int(int64(s.Start-st.First) * int64(width) / int64(st.Total))
				hi = int(int64(s.End-st.First) * int64(width) / int64(st.Total))
			}
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = byte('0' + s.Batch%10)
			}
		}
		fmt.Fprintf(&b, "%-*s |%s| %3.0f%% busy\n", nameW, name, string(row), 100*st.Utilization(name))
	}
	return b.String()
}
