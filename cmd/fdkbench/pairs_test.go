package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The pairs table pairs the two files line by line: the head's wins are
// counted per pair, not from the medians, in the direction the benchmark
// declaration gives each metric, and the quartiles are the benchmark's own
// (Python's "exclusive" method). The results.json files an invocation kept
// give each arm's median calibration loop.
func TestPairsTable(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "peak_rss_mib", "better": "lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(wall, rss float64) string {
		return fmt.Sprintf(`{"correct":true,"attempted":9,"failed":0,"metrics":{"wall_s":{"value":%g,"unit":"s"},"peak_rss_mib":{"value":%g,"unit":"MiB"}}}`, wall, rss)
	}
	base := []string{line(0.045, 10), line(0.046, 10), line(0.040, 10), line(0.047, 10), line(0.044, 10)}
	head := []string{line(0.043, 10), line(0.044, 10), line(0.041, 10), line(0.042, 10), line(0.043, 10), line(0.030, 10)}
	files := map[string]string{
		"base.jsonl":          strings.Join(base, "\n") + "\n",
		"head.jsonl":          strings.Join(head, "\n") + "\n",
		"base-1.results.json": `{"workloads": [{"reps": [{"wall_s": 0.5, "calib_s": 0.003}, {"wall_s": 0.7, "calib_s": 0.005}]}]}`,
		"base-2.results.json": `{"workloads": [{"reps": [{"wall_s": 0.6, "calib_s": 0.004}]}]}`,
		"head-1.results.json": `{"workloads": [{"reps": [{"wall_s": 0.4, "calib_s": 0.004}]}]}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := pairsTable(&out, dir, spec); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	t.Log(got)
	for _, want := range []string{
		"5 pairs from",
		// base sorted 0.040 0.044 0.045 0.046 0.047: q1 = 0.042, q3 = 0.0465.
		"| `wall_s` | s | lower | 0.042 / 0.045 / 0.0465 | 0.0415 / 0.043 / 0.0435 | -4.44 % | no | 4 of 5 | unchanged |",
		"| `peak_rss_mib` | MiB | lower | 10 / 10 / 10 | 10 / 10 / 10 | +0.00 % | no | 0 of 5 | unchanged |",
		"base: calibration loop 4 ms, raw wall 0.6 s (medians over 3 reps of 2 invocations)",
		"head: calibration loop 4 ms, raw wall 0.4 s (medians over 1 reps of 1 invocations)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("the table lacks %q", want)
		}
	}
	if err := pairsTable(&out, dir, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing benchmark declaration gives a table")
	}
}

// A verdict needs nine tenths of the pairs and a median shift beyond the
// base arm's interquartile range, both on the same side; a metric the
// declaration does not direct gets none.
func TestPairVerdict(t *testing.T) {
	for _, c := range []struct {
		better       string
		gain         float64
		beyond       bool
		wins, losses int
		pairs        int
		want         string
	}{
		{"lower", 0.2, true, 9, 1, 10, "improved"},
		{"higher", 0.2, true, 10, 0, 10, "improved"},
		{"lower", 0.2, true, 8, 2, 10, "unresolved"},
		{"lower", 0.2, false, 10, 0, 10, "unresolved"},
		{"lower", -0.2, true, 1, 9, 10, "regressed"},
		{"lower", -0.2, true, 2, 8, 10, "unresolved"},
		{"lower", 0.01, false, 6, 4, 10, "unchanged"},
		{"lower", 0, false, 0, 0, 10, "unchanged"},
		{"", 0.2, true, 10, 0, 10, "—"},
	} {
		if got := pairVerdict(c.better, c.gain, c.beyond, c.wins, c.losses, c.pairs); got != c.want {
			t.Errorf("%+v: %s", c, got)
		}
	}
}
