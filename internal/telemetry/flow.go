package telemetry

import "time"

// Flow kinds: one FlowRecord is either the send side or the receive side
// of a point-to-point message. The two sides pair up by MsgID — a world-
// global monotone message id the mpi layer assigns per Send — which is
// what turns per-rank span streams into a causal cross-rank graph: the
// Chrome trace exporter draws the pairs as Perfetto flow arrows, and the
// critical-path walk follows them backward across ranks.
const (
	FlowSend = "send"
	FlowRecv = "recv"
)

// FlowRecord is one side of a point-to-point message on a rank's
// timeline: (srcRank, dstRank, tag, msgID, bytes) plus the operation's
// epoch-relative window. Src and Dst are registry (world) ranks, not
// communicator-local ranks, so records from Split sub-communicators pair
// up with world records in one id space. Dst is known at send time
// because the mpi layer threads the world-rank mapping through Split.
type FlowRecord struct {
	MsgID int64  `json:"msg_id"`
	Kind  string `json:"kind"` // FlowSend or FlowRecv
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Tag   int    `json:"tag"`
	Bytes int64  `json:"bytes"`
	// Start/End bound the send or recv operation, relative to the run
	// epoch (same clock as Span.Start/End).
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// RecordFlow appends one flow record. Nil-safe no-op.
func (r *Registry) RecordFlow(f FlowRecord) {
	if r == nil {
		return
	}
	r.flowMu.Lock()
	r.flows = append(r.flows, f)
	r.flowMu.Unlock()
}

// Flows returns a copy of the recorded flow records (nil for a nil
// registry).
func (r *Registry) Flows() []FlowRecord {
	if r == nil {
		return nil
	}
	r.flowMu.Lock()
	defer r.flowMu.Unlock()
	return append([]FlowRecord(nil), r.flows...)
}

// SinceEpoch converts an absolute time to the registry's epoch-relative
// clock (0 for a nil registry) — how the mpi layer stamps flow records on
// the same timeline as spans.
func (r *Registry) SinceEpoch(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// FlowStats summarises the pairing state of a snapshot set's flows.
type FlowStats struct {
	Sends   int // send-side records
	Recvs   int // recv-side records
	Matched int // recv records whose MsgID has a send record
}

// matchFlows indexes every send-side record by MsgID across snapshots and
// reports how many recv-side records found their sender. Unmatched sends
// are normal in fault runs (the receiver died before draining); unmatched
// recvs indicate a sender whose registry was not captured.
func matchFlows(snaps []Snapshot) (sendByID map[int64]FlowRecord, stats FlowStats) {
	sendByID = map[int64]FlowRecord{}
	for _, s := range snaps {
		for _, f := range s.Flows {
			if f.Kind == FlowSend && f.MsgID > 0 {
				sendByID[f.MsgID] = f
				stats.Sends++
			}
		}
	}
	for _, s := range snaps {
		for _, f := range s.Flows {
			if f.Kind != FlowRecv {
				continue
			}
			stats.Recvs++
			if _, ok := sendByID[f.MsgID]; ok && f.MsgID > 0 {
				stats.Matched++
			}
		}
	}
	return sendByID, stats
}
