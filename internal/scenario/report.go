package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// AnalysisSchema versions the analysis.json layout for downstream
// consumers (CI validation, dashboards).
const AnalysisSchema = "distfdk-slo/2"

// Analysis is the slogate artifact: every scenario's runs and gate
// verdicts, plus the overall pass bit that decides the exit code.
type Analysis struct {
	Schema    string           `json:"schema"`
	Timestamp string           `json:"timestamp,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
	Pass      bool             `json:"pass"`
}

// ScenarioResult is one scenario's replay: the fault-free reference run,
// the seeded injected runs, and the verdicts over them.
type ScenarioResult struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Seed        int64        `json:"seed"`
	Runs        int          `json:"runs"`
	Expect      string       `json:"expect"`
	Reference   RunMetrics   `json:"reference"`
	Injected    []RunMetrics `json:"injected"`
	Gates       []GateResult `json:"gates"`
	Pass        bool         `json:"pass"`
	// Error is set when the scenario could not be replayed at all (the
	// world failed to build); such a scenario always fails.
	Error string `json:"error,omitempty"`
}

// GateResult is one evaluated assertion. Values holds the gated count of
// every injected run, in run order (absent on the implicit outcome and
// volume verdicts, which say what they saw in Detail).
type GateResult struct {
	Metric string  `json:"metric"`
	Values []int64 `json:"values,omitempty"`
	Min    *int64  `json:"min,omitempty"`
	Max    *int64  `json:"max,omitempty"`
	Pass   bool    `json:"pass"`
	Detail string  `json:"detail,omitempty"`
}

// NewAnalysis assembles the artifact and computes the overall verdict.
func NewAnalysis(results []ScenarioResult, timestamp string) *Analysis {
	a := &Analysis{Schema: AnalysisSchema, Timestamp: timestamp, Pass: true}
	a.Scenarios = append(a.Scenarios, results...)
	for _, r := range a.Scenarios {
		if !r.Pass {
			a.Pass = false
		}
	}
	return a
}

// MarshalJSON output of the analysis, indented for artifact diffing.
func (a *Analysis) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// Markdown renders the human-readable gate report.
func (a *Analysis) Markdown() string {
	var b strings.Builder
	verdict := "PASS"
	if !a.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "# SLO gate: %s\n\n", verdict)
	if a.Timestamp != "" {
		fmt.Fprintf(&b, "_%s · schema %s_\n\n", a.Timestamp, a.Schema)
	}
	for _, s := range a.Scenarios {
		mark := "✅"
		if !s.Pass {
			mark = "❌"
		}
		fmt.Fprintf(&b, "## %s %s\n\n", mark, s.Name)
		if s.Description != "" {
			fmt.Fprintf(&b, "%s\n\n", s.Description)
		}
		if s.Error != "" {
			fmt.Fprintf(&b, "scenario failed to run: %s\n\n", s.Error)
			continue
		}
		fmt.Fprintf(&b, "seed %d · 1 reference + %d injected runs · expect `%s`\n\n", s.Seed, s.Runs, s.Expect)
		b.WriteString("| gate | per injected run | bound | verdict |\n|---|---|---|---|\n")
		for _, g := range s.Gates {
			// The implicit verdicts (no Values) say what held in Detail.
			values, bound, verdict := "—", g.Detail, "pass"
			if !g.Pass {
				bound, verdict = "—", "**FAIL** — "+g.Detail
			}
			if g.Values != nil {
				values = strings.Trim(fmt.Sprint(g.Values), "[]")
				bound = fmt.Sprintf("[%s, %s]", fmtBound(g.Min), fmtBound(g.Max))
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", g.Metric, values, bound, verdict)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtBound(p *int64) string {
	if p == nil {
		return "·"
	}
	return fmt.Sprint(*p)
}

// ValidateAnalysisJSON checks an analysis artifact: schema tag, at least
// one scenario, gate verdicts consistent with the per-scenario and
// overall pass bits. CI runs this against the uploaded artifact so a
// silently-truncated or hand-edited file cannot masquerade as a verdict.
func ValidateAnalysisJSON(data []byte) (*Analysis, error) {
	// The tag first: another layout's fields are not this one's typos.
	var tag struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if tag.Schema != AnalysisSchema {
		return nil, fmt.Errorf("analysis: schema %q, want %q", tag.Schema, AnalysisSchema)
	}
	var a Analysis
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if len(a.Scenarios) == 0 {
		return nil, fmt.Errorf("analysis: no scenarios")
	}
	overall := true
	for i, s := range a.Scenarios {
		if s.Name == "" {
			return nil, fmt.Errorf("analysis: scenario %d has no name", i)
		}
		if s.Error == "" && len(s.Gates) == 0 {
			return nil, fmt.Errorf("analysis: scenario %q has no gate verdicts", s.Name)
		}
		pass := s.Error == ""
		for _, g := range s.Gates {
			if g.Metric == "" {
				return nil, fmt.Errorf("analysis: scenario %q has an unnamed gate", s.Name)
			}
			pass = pass && g.Pass
		}
		if pass != s.Pass {
			return nil, fmt.Errorf("analysis: scenario %q pass bit %v contradicts its gates", s.Name, s.Pass)
		}
		overall = overall && pass
	}
	if overall != a.Pass {
		return nil, fmt.Errorf("analysis: overall pass bit %v contradicts the scenarios", a.Pass)
	}
	return &a, nil
}
