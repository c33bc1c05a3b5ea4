package scenario

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"distfdk/internal/alloctest"
)

// The scenario files are the one input of this repository that people write
// by hand, so parse is the parser most likely to meet a torn, mis-indented
// or half-edited file. The fuzz target's invariant: a *Config that passes
// its own cross-validation and compiles into an injector and a retry policy,
// or an error that says where — never a panic, a hang, or an allocation
// beyond a small multiple of the input. The seeds (the shipped scenarios,
// the ways an editor breaks them, and what the format no longer takes — a
// deleted metric, a duration or fractional bound) run in every `go test`;
// `make fuzz-smoke` mutates from them for 10 s.

// located matches the loader's contract for an error: path:line: message.
// An empty file has no line to name.
var located = regexp.MustCompile(`^fuzz\.yaml:[1-9][0-9]*: .`)

func FuzzParseScenario(f *testing.F) {
	shipped, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(shipped) == 0 {
		f.Fatalf("no shipped scenarios to seed from: %v", err)
	}
	for _, path := range shipped {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	doc := validDoc
	swap := func(old, new string) string { return strings.Replace(doc, old, new, 1) }
	for _, s := range []string{
		doc, "", "\n# only a comment\n", "---\n",
		doc[:len(doc)/2], doc[:len(doc)-3], doc[:strings.Index(doc, "kills:")+len("kills:\n  - ")], // torn
		doc + doc, swap("seed: 7\n", "seed: 7\nseed: 8\n"), swap("  ranks: 2\n", "  ranks: 2\n  ranks: 2\n"), // duplicated
		swap("  groups: 2", "      groups: 2"), swap("    rank: any", "        rank: any"), " " + doc, // over-indented
		swap("  groups: 2", "\tgroups: 2"), swap("  - rank: 3", "  -\trank: 3"), swap("seed: 7", "seed:\t7"), // tab-indented
		swap("seed: 7", "seed: 99999999999999999999"), swap("runs: 2", "runs: 9223372036854775807"), // huge integers
		swap("batches: 4", "batches: 4611686018427387904"), swap("rank: 3", "rank: 18446744073709551615"),
		swap("count: 3", "count: 9223372036854775807"), swap("groups: 2", "groups: 3037000500\n  ranks: 3037000500"),
		swap("deadline: 5s", "deadline: -5s"), swap("delay: 2ms", "delay: -2ms"), swap("base_delay: 1ms", "base_delay: -1ms"), // negative durations
		swap("restart_backoff: 1ms", "restart_backoff: -1h"),
		swap("max: 40", "max: 5s"), swap("max: 40", "max: -5s"), swap("max: 40", "max: 0.98"), swap("max: 40", "max: -1"), // bounds are counts
		swap("max: 40", "min: 0"), swap("min: 1\n    max: 1", "min: 2\n    max: 1"), swap("max: 40", "max: 9223372036854775808"),
		swap("deadline: 5s", "deadline: 2562047h48m"), swap("world:", "world: {groups: 2}"), swap("gates:", "gates: []"),
		swap("name: demo-scenario", "name: \"unterminated"), swap("rank: any", "rank: -1"), "- a\n- b\n", "name:\n  - x\n",
	} {
		f.Add([]byte(s))
	}
	for _, name := range deletedMetrics(f) {
		f.Add([]byte(swap("metric: retries", "metric: "+name)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg *Config
		var err error
		got := alloctest.AllocatedBy(func() { cfg, err = parse("fuzz.yaml", data) })
		// A line of a few bytes costs a node and its key maps: some 20–60 bytes
		// allocated per input byte on the shipped scenarios and on the densest
		// degenerate ones ("a:\n" or "- a\n" repeated).
		if bound := uint64(128*len(data) + 64<<10); got > bound {
			t.Fatalf("%d input bytes allocated %d", len(data), got)
		}
		if err != nil {
			if cfg != nil {
				t.Fatalf("a Config came back beside the error %v", err)
			}
			if msg := err.Error(); !located.MatchString(msg) && msg != "fuzz.yaml: empty scenario file" {
				t.Fatalf("error does not say where: %q", msg)
			}
			return
		}
		root, err := parseYAML("fuzz.yaml", data)
		if err != nil {
			t.Fatalf("parse accepted what parseYAML refuses: %v", err)
		}
		if err := crossValidate("fuzz.yaml", root, cfg); err != nil {
			t.Fatalf("an accepted scenario fails its own cross-validation: %v", err)
		}
		w := cfg.World
		if !validName(cfg.Name) || cfg.Runs < 1 || cfg.Deadline < 0 || w.Groups < 1 || w.Ranks < 1 || w.Batches < 1 {
			t.Fatalf("accepted out-of-range header %+v", cfg)
		}
		if cfg.Injector(0) == nil {
			t.Fatal("an accepted scenario compiles to no injector")
		}
		if rp := cfg.RetryPolicy(); (rp == nil) != (cfg.Retry == nil) {
			t.Fatalf("retry section %+v compiled to policy %+v", cfg.Retry, rp)
		}
	})
}
