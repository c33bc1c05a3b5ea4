package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// testWorld is the smallest interesting world: 2 groups × 2 ranks over 4
// batches of the div-16 synthetic twin.
const testWorld = `world:
  groups: 2
  ranks: 2
  batches: 4
`

func mustParse(t *testing.T, doc string) *Config {
	t.Helper()
	cfg, err := Parse("test.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func gate(t *testing.T, res *ScenarioResult, metric string) GateResult {
	t.Helper()
	for _, g := range res.Gates {
		if g.Metric == metric {
			return g
		}
	}
	t.Fatalf("no %q gate in %+v", metric, res.Gates)
	return GateResult{}
}

// wantOneVolume asserts the volume verdict passed and that it means what it
// says: the reference and every injected run carry one non-empty hash.
func wantOneVolume(t *testing.T, res *ScenarioResult) {
	t.Helper()
	if v := gate(t, res, "volume"); !v.Pass || !strings.Contains(v.Detail, res.Reference.Volume) {
		t.Fatalf("volume verdict = %+v", v)
	}
	if len(res.Reference.Volume) != 64 {
		t.Fatalf("reference volume hash = %q", res.Reference.Volume)
	}
	for _, r := range res.Injected {
		if r.Volume != res.Reference.Volume {
			t.Fatalf("injected run %d reconstructed %s, reference %s", r.Run, r.Volume, res.Reference.Volume)
		}
	}
}

// wantAtRest asserts a fault-free run counted no event at all — on a socket
// world that includes reconnects and severs: a clean wire stays up.
func wantAtRest(t *testing.T, r RunMetrics) {
	t.Helper()
	if r.Outcome != OutcomeSuccess {
		t.Fatalf("fault-free run = %+v", r)
	}
	for name, v := range r.Counts {
		if v != 0 {
			t.Errorf("fault-free run counted %s = %d, want 0", name, v)
		}
	}
}

// TestCommittedScenarios is the release wall in tier-1: every file under
// scenarios/ replays and holds every verdict on every run.
func TestCommittedScenarios(t *testing.T) {
	cfgs, err := LoadDir("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		res, err := Execute(cfg, nil)
		if err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
			continue
		}
		wantAtRest(t, res.Reference)
		for _, g := range res.Gates {
			if !g.Pass {
				t.Errorf("%s: %s verdict breached: %s", cfg.Name, g.Metric, g.Detail)
			}
		}
	}
}

func TestExecuteFaultFreeBaseline(t *testing.T) {
	cfg := mustParse(t, `name: baseline
runs: 2
`+testWorld+`gates:
  - metric: faults_injected
    max: 0
`)
	res, err := Execute(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("fault-free scenario failed: %+v", res.Gates)
	}
	if len(res.Injected) != 2 {
		t.Fatalf("%d injected runs, want 2", len(res.Injected))
	}
	wantOneVolume(t, res)
	for _, r := range append(res.Injected, res.Reference) {
		wantAtRest(t, r)
	}
}

func TestExecuteTransientFaultsAbsorbed(t *testing.T) {
	cfg := mustParse(t, `name: transient
runs: 2
`+testWorld+`faults:
  - op: load
    count: 3
retry:
  max_attempts: 6
  base_delay: 100us
  max_delay: 1ms
gates:
  - metric: faults_injected
    min: 12
    max: 12
  - metric: retries
    min: 12
    max: 12
`)
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Occurrence counters are per (op, rank): count 3 on 4 ranks fires
	// exactly 12 times per run, deterministically, and each firing costs
	// one re-attempt.
	if !res.Pass {
		t.Fatalf("transient scenario failed: %+v", res.Gates)
	}
	wantOneVolume(t, res)
	wantAtRest(t, res.Reference)
}

// The straggler scenario's receives are judged in the phase of the batch
// their reduce stage serves, while each rank's load stage runs batches
// ahead of it: each of the two group leaders receives its member's 4 slab
// planes in each of the 2 inject batches, so every run injects exactly 16
// delays, and the other ranks, which only send, none.
func TestStragglerRulesUnderRun(t *testing.T) {
	cfg, err := Load("../../scenarios/straggler-latency.yaml")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("straggler scenario failed: %+v", res.Gates)
	}
	for _, r := range res.Injected {
		if n := r.Counts["faults_injected"]; n != 16 {
			t.Errorf("run %d injected %d delays, want 16", r.Run, n)
		}
	}
	wantOneVolume(t, res)
}

// A killed rank is survived within the budget: one restart, one lost rank,
// the fault-free volume. A budget of 0 is literal: no restart, no shrink,
// and the loss is the run's outcome.
func TestExecuteKillRecovery(t *testing.T) {
	for _, tc := range []struct {
		budget   int
		expect   string
		restarts int64
	}{
		{2, OutcomeSuccess, 1},
		{0, OutcomeRankLost, 0},
	} {
		cfg := mustParse(t, fmt.Sprintf(`name: kill
runs: 2
`+testWorld+`kills:
  - rank: 3
    batch: 1
supervise:
  max_restarts: %d
  restart_backoff: 1ms
expect: %s
gates:
  - metric: restarts
    min: %[3]d
    max: %[3]d
  - metric: lost_ranks
    min: %[3]d
    max: %[3]d
`, tc.budget, tc.expect, tc.restarts))
		res, err := Execute(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Fatalf("max_restarts %d: kill scenario failed: %+v", tc.budget, res.Gates)
		}
		for _, r := range res.Injected {
			if r.Outcome != tc.expect || r.Counts["restarts"] != tc.restarts {
				t.Fatalf("max_restarts %d: run %d reads %s with %d restarts, want %s with %d",
					tc.budget, r.Run, r.Outcome, r.Counts["restarts"], tc.expect, tc.restarts)
			}
		}
		if tc.expect == OutcomeSuccess {
			// The shrunk world resumed into the fault-free volume.
			wantOneVolume(t, res)
		}
	}
}

// TestExecuteTightenedGateFails is the wall's own smoke test: take a
// passing scenario, tighten one bound beyond reach, and the verdict must
// flip with the breached gate and run named.
func TestExecuteTightenedGateFails(t *testing.T) {
	cfg := mustParse(t, `name: tight
runs: 2
`+testWorld+`gates:
  - metric: retries
    min: 1
`)
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("impossible gate passed")
	}
	g := gate(t, res, "retries")
	if g.Pass || !strings.Contains(g.Detail, "injected run 0: 0 below min 1") {
		t.Fatalf("gate = %+v", g)
	}
	for _, implicit := range []string{"outcome", "volume"} {
		if v := gate(t, res, implicit); !v.Pass {
			t.Fatalf("%s verdict should still pass: %+v", implicit, v)
		}
	}
}

// A scenario that declares a non-success expectation must fail its
// outcome gate when the run in fact succeeds — degradation declarations
// are assertions in both directions.
func TestExecuteExpectMismatchFails(t *testing.T) {
	cfg := mustParse(t, `name: expect-mismatch
runs: 1
`+testWorld+`expect: restart-budget
gates:
  - metric: faults_injected
    max: 0
`)
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("mismatched expectation passed")
	}
	out := gate(t, res, "outcome")
	if out.Pass || !strings.Contains(out.Detail, "want restart-budget") {
		t.Fatalf("outcome gate = %+v", out)
	}
}

// TestExecuteSocketWorldRecovery replays a supervised scenario over a
// real loopback TCP fleet: three processes, a wire sever absorbed by the
// link's reconnect + replay, then a rank kill that every process's
// supervisor must resolve into the same one-restart shrink. This is the
// in-repo twin of scenarios/net-partition.yaml.
func TestExecuteSocketWorldRecovery(t *testing.T) {
	cfg := mustParse(t, `name: socket-recovery
runs: 1
world:
  groups: 2
  ranks: 2
  batches: 4
  transport: tcp
  procs: 3
faults:
  - op: sever
    rank: 1
    nth: 2
kills:
  - rank: 1
    batch: 1
supervise:
  max_restarts: 2
  restart_backoff: 1ms
gates:
  - metric: severs
    min: 1
    max: 1
  - metric: reconnects
    min: 1
  - metric: retransmits
    min: 1
  - metric: restarts
    min: 1
    max: 1
  - metric: lost_ranks
    min: 1
    max: 1
`)
	res, err := Execute(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("socket recovery scenario failed: %+v", res.Gates)
	}
	wantOneVolume(t, res)
	wantAtRest(t, res.Reference)
}

// TestVerdictsBite hand-builds results the old aggregation would have
// passed: the median of {1, 2, 1} restarts reads 1, and nothing compared
// volumes at all.
func TestVerdictsBite(t *testing.T) {
	one := int64(1)
	run := func(i int, outcome, volume string, restarts int64) RunMetrics {
		return RunMetrics{Run: i, Outcome: outcome, Volume: volume, Counts: map[string]int64{"restarts": restarts}}
	}
	const ref, off = "aa11", "aa12" // one voxel apart is one hash apart
	cases := []struct {
		name     string
		expect   string
		injected []RunMetrics
		breached string // the one verdict that must fail ("" = all pass)
		detail   string
	}{
		{"all equal", OutcomeSuccess,
			[]RunMetrics{run(0, OutcomeSuccess, ref, 1), run(1, OutcomeSuccess, ref, 1), run(2, OutcomeSuccess, ref, 1)},
			"", ""},
		{"one run of three reconstructs other bytes", OutcomeSuccess,
			[]RunMetrics{run(0, OutcomeSuccess, ref, 1), run(1, OutcomeSuccess, off, 1), run(2, OutcomeSuccess, ref, 1)},
			"volume", "injected run 1"},
		{"one run of three restarts twice", OutcomeSuccess,
			[]RunMetrics{run(0, OutcomeSuccess, ref, 1), run(1, OutcomeSuccess, ref, 1), run(2, OutcomeSuccess, ref, 2)},
			"restarts", "injected run 2: 2 above max 1"},
		{"a declared failure has no volume to compare", OutcomeRestartBudget,
			[]RunMetrics{run(0, OutcomeRestartBudget, "", 1), run(1, OutcomeRestartBudget, "", 1), run(2, OutcomeRestartBudget, "", 1)},
			"", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &Config{Expect: tc.expect, Gates: []Gate{{Metric: "restarts", Min: &one, Max: &one}}}
			res := &ScenarioResult{Reference: run(0, OutcomeSuccess, ref, 0), Injected: tc.injected}
			evaluate(cfg, res)
			if res.Pass != (tc.breached == "") {
				t.Fatalf("pass = %v: %+v", res.Pass, res.Gates)
			}
			sawVolume := false
			for _, g := range res.Gates {
				sawVolume = sawVolume || g.Metric == "volume"
				if g.Pass == (g.Metric == tc.breached) {
					t.Errorf("%s verdict pass = %v: %+v", g.Metric, g.Pass, g)
				}
				if g.Metric == tc.breached && !strings.Contains(g.Detail, tc.detail) {
					t.Errorf("%s detail %q does not name %q", g.Metric, g.Detail, tc.detail)
				}
			}
			if sawVolume != (tc.expect == OutcomeSuccess) {
				t.Errorf("volume verdict present = %v under expect %s", sawVolume, tc.expect)
			}
		})
	}
}

func TestAnalysisRoundtripAndValidation(t *testing.T) {
	cfg := mustParse(t, `name: tight
runs: 1
`+testWorld+`gates:
  - metric: retries
    min: 1
`)
	res, err := Execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalysis([]ScenarioResult{*res}, "2026-01-01T00:00:00Z")
	if a.Pass {
		t.Fatal("analysis over a failing scenario passed")
	}
	data, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ValidateAnalysisJSON(data)
	if err != nil {
		t.Fatalf("round-tripped artifact rejected: %v", err)
	}
	if back.Pass || len(back.Scenarios) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}

	md := a.Markdown()
	for _, want := range []string{"# SLO gate: FAIL", "tight", "retries", "below min", "sha256 " + res.Reference.Volume} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}

	// A hand-edited pass bit contradicting the gates is rejected.
	forged := strings.Replace(string(data), `"pass": false`, `"pass": true`, 1)
	if _, err := ValidateAnalysisJSON([]byte(forged)); err == nil {
		t.Fatal("forged pass bit accepted")
	}
	// The previous layout's tag is refused, not read as if it were this one.
	old := strings.Replace(string(data), AnalysisSchema, "distfdk-slo/1", 1)
	if _, err := ValidateAnalysisJSON([]byte(old)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("distfdk-slo/1 artifact: err = %v", err)
	}
}
