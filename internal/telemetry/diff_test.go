package telemetry

import "testing"

func TestCounterTotal(t *testing.T) {
	snaps := []Snapshot{
		{Rank: 0, Counters: map[string]int64{"core.batches": 4}},
		{Rank: 1, Counters: map[string]int64{"core.batches": 3}},
		{Rank: SharedRank, Counters: map[string]int64{"supervise.restarts": 1, "core.batches": 1}},
	}
	if got := CounterTotal(snaps, "core.batches"); got != 8 {
		t.Errorf("CounterTotal = %d, want 8 (the shared registry counts too)", got)
	}
	if got := CounterTotal(snaps, "absent"); got != 0 {
		t.Errorf("CounterTotal(absent) = %d, want 0", got)
	}
}
