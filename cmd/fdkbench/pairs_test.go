package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The pairs table pairs the two files line by line: the head's wins are
// counted per pair, not from the medians, and the quartiles are the
// benchmark's own (Python's "exclusive" method).
func TestPairsTable(t *testing.T) {
	dir := t.TempDir()
	line := func(wall, rss float64) string {
		return fmt.Sprintf(`{"correct":true,"attempted":9,"failed":0,"metrics":{"wall_s":{"value":%g,"unit":"s"},"peak_rss_mib":{"value":%g,"unit":"MiB"}}}`, wall, rss)
	}
	base := []string{line(0.045, 10), line(0.046, 10), line(0.040, 10), line(0.047, 10), line(0.044, 10)}
	head := []string{line(0.043, 10), line(0.044, 10), line(0.041, 10), line(0.042, 10), line(0.043, 10), line(0.030, 10)}
	for name, lines := range map[string][]string{"base.jsonl": base, "head.jsonl": head} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := pairsTable(&out, dir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	t.Log(got)
	for _, want := range []string{
		"5 pairs from",
		// base sorted 0.040 0.044 0.045 0.046 0.047: q1 = 0.042, q3 = 0.0465.
		"| `wall_s` | s | 0.042 / 0.045 / 0.0465 | 0.0415 / 0.043 / 0.0435 | -4.44 % | no | 4 of 5 |",
		"| `peak_rss_mib` | MiB | 10 / 10 / 10 | 10 / 10 / 10 | +0.00 % | no | 0 of 5 |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("the table lacks %q", want)
		}
	}
}
