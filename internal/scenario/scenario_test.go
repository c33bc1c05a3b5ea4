package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/fault"
)

const validDoc = `name: demo-scenario
description: exercise the schema
seed: 7
runs: 2
world:
  groups: 2
  ranks: 2
  batches: 4
phases:
  warmup: 1
  inject: 2
faults:
  - op: load
    rank: any
    class: transient
    count: 3
    phase: inject
  - op: recv
    rank: 1
    count: every
    delay: 2ms
kills:
  - rank: 3
    batch: 1
retry:
  max_attempts: 5
  base_delay: 1ms
  max_delay: 20ms
supervise:
  max_restarts: 2
  restart_backoff: 1ms
deadline: 5s
expect: success
gates:
  - metric: restarts
    min: 1
    max: 1
  - metric: retries
    max: 40
`

// deletedMetrics reads testdata/deleted-metrics.txt: the measured-time and
// ratio metrics the catalog held until the wall stopped timing anything. A
// scenario file that still names one is refused where it names it, like any
// unknown metric.
func deletedMetrics(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "deleted-metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(data))
}

func TestParseValidScenario(t *testing.T) {
	cfg, err := parse("demo.yaml", []byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "demo-scenario" || cfg.Seed != 7 || cfg.Runs != 2 {
		t.Errorf("header = %+v", cfg)
	}
	if cfg.World != (WorldConfig{Dataset: "tomo_00030", Div: 16, N: 32, Groups: 2, Ranks: 2, Batches: 4, Transport: "chan"}) {
		t.Errorf("world defaults not applied: %+v", cfg.World)
	}
	if cfg.World.SocketTransport() {
		t.Error("default world must not be a socket world")
	}
	if cfg.Phases != (PhaseConfig{Warmup: 1, Inject: 2}) {
		t.Errorf("phases = %+v", cfg.Phases)
	}
	if len(cfg.Faults) != 2 {
		t.Fatalf("faults = %+v", cfg.Faults)
	}
	f0, f1 := cfg.Faults[0], cfg.Faults[1]
	if f0.Rank != fault.AnyRank || f0.Count != 3 || f0.Phase != fault.PhaseInject {
		t.Errorf("faults[0] = %+v", f0)
	}
	if f1.Rank != 1 || f1.Count != fault.Every || f1.Delay != 2*time.Millisecond {
		t.Errorf("faults[1] = %+v", f1)
	}
	if cfg.Retry.MaxAttempts != 5 || cfg.Retry.BaseDelay != time.Millisecond {
		t.Errorf("retry = %+v", cfg.Retry)
	}
	if cfg.Supervise.MaxRestarts != 2 || cfg.Deadline != 5*time.Second {
		t.Errorf("supervise/deadline = %+v %v", cfg.Supervise, cfg.Deadline)
	}
	// An absent budget is the default one, not 0 (which is one attempt).
	if dflt, err := parse("demo.yaml", edit(t, "  max_restarts: 2\n", "")); err != nil {
		t.Error(err)
	} else if dflt.Supervise.MaxRestarts != core.DefaultMaxRestarts {
		t.Errorf("absent max_restarts decodes to %d, want %d", dflt.Supervise.MaxRestarts, core.DefaultMaxRestarts)
	}
	if len(cfg.Gates) != 2 || cfg.Gates[0].Metric != "restarts" {
		t.Fatalf("gates = %+v", cfg.Gates)
	}
	if g := cfg.Gates[1]; g.Min != nil || *g.Max != 40 {
		t.Errorf("retries gate = %+v", g)
	}
	if !cfg.Supervised() {
		t.Error("kill schedule must imply supervision")
	}

	in := cfg.Injector(0)
	if in.PendingKills() != 1 {
		t.Errorf("injector kills = %d", in.PendingKills())
	}
	if ps := in.PhaseSchedule(); ps == nil || ps.WarmupBatches != 1 {
		t.Errorf("injector phase schedule = %+v", ps)
	}
	rp := cfg.RetryPolicy()
	if rp == nil || rp.MaxAttempts != 5 || rp.Seed != 7 {
		t.Errorf("retry policy = %+v", rp)
	}
}

// edit returns validDoc with one line rewritten, to probe single-field
// validation without re-authoring the whole document.
func edit(t *testing.T, from, to string) []byte {
	t.Helper()
	if !strings.Contains(validDoc, from) {
		t.Fatalf("validDoc does not contain %q", from)
	}
	return []byte(strings.Replace(validDoc, from, to, 1))
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  []byte
		want string
	}{
		{"unknown top key", edit(t, "deadline: 5s", "deadlines: 5s"), `unknown key "deadlines"`},
		{"unknown world key", edit(t, "  batches: 4", "  slabs: 4"), `unknown key "slabs"`},
		{"bad name", edit(t, "name: demo-scenario", "name: Demo_Scenario"), "want lowercase"},
		{"zero runs", edit(t, "runs: 2", "runs: 0"), "runs: want at least 1"},
		{"bad int", edit(t, "seed: 7", "seed: seven"), "want an integer"},
		{"bad duration", edit(t, "deadline: 5s", "deadline: fast"), "want a duration"},
		{"bad op", edit(t, "op: recv", "op: fetch"), `unknown operation "fetch"`},
		{"bad class", edit(t, "class: transient", "class: flaky"), `unknown class "flaky"`},
		{"bad phase", edit(t, "phase: inject", "phase: chaos"), `unknown phase "chaos"`},
		{"bad rank", edit(t, "rank: any", "rank: -2"), `want "any" or a rank index`},
		{"bad count", edit(t, "count: every", "count: 0"), `want "every" or a positive count`},
		{"bad expect", edit(t, "expect: success", "expect: explodes"), "unknown outcome"},
		{"unknown metric", edit(t, "metric: restarts", "metric: vibes"), `unknown metric "vibes"`},
		{"bound gibberish", edit(t, "max: 40", "max: loose"), "want a non-negative integer count"},
		{"duration bound", edit(t, "max: 40", "max: 5s"), `want a non-negative integer count, got "5s"`},
		{"fractional bound", edit(t, "max: 40", "max: 0.98"), "want a non-negative integer count"},
		{"negative bound", edit(t, "max: 40", "max: -1"), "want a non-negative integer count"},
		{"quoted bound", edit(t, "max: 40", `max: "40"`), "want a non-negative integer count"},
		{"vacuous gate", edit(t, "max: 40", "min: 0"), "min 0 alone cannot fail"},
		{"empty range", edit(t, "min: 1\n    max: 1", "min: 2\n    max: 1"), "min 2 above max 1"},
		{"negative budget", edit(t, "max_restarts: 2", "max_restarts: -1"), "supervise.max_restarts: want a non-negative restart budget"},
		{"kill rank range", edit(t, "rank: 3\n    batch: 1", "rank: 9\n    batch: 1"), "rank 9 out of range"},
		{"kill batch range", edit(t, "batch: 1", "batch: 99"), "batch 99 out of range"},
		{"warmup swallows run", edit(t, "warmup: 1", "warmup: 4"), "consume the whole run"},
		{"missing world", []byte("name: x\ngates:\n  - metric: retries\n    max: 0\n"), "world: required section missing"},
		{"missing name", []byte("world:\n  groups: 1\n  ranks: 1\n  batches: 1\n"), "name: required key missing"},
		{"bad transport", edit(t, "  batches: 4", "  batches: 4\n  transport: carrier-pigeon"), `unknown transport "carrier-pigeon"`},
		{"bad transport unix", edit(t, "  batches: 4", "  batches: 4\n  transport: unix\n  procs: 3"), "unknown transport \"unix\" (chan, tcp)"},
		{"socket without procs", edit(t, "  batches: 4", "  batches: 4\n  transport: tcp"), "at least 2 processes"},
		{"one-proc socket world", edit(t, "  batches: 4", "  batches: 4\n  transport: tcp\n  procs: 1"), "at least 2 processes"},
		{"procs on channel world", edit(t, "  batches: 4", "  batches: 4\n  procs: 3"), "only meaningful with transport"},
		{"wire op on channel world", edit(t, "op: recv", "op: sever"), "needs world.transport tcp"},
	}
	for _, name := range deletedMetrics(t) {
		cases = append(cases, struct {
			name string
			doc  []byte
			want string
		}{"deleted metric " + name, edit(t, "metric: retries", "metric: "+name), `unknown metric "` + name + `"`})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse("demo.yaml", tc.doc)
			if err == nil {
				t.Fatal("parse accepted the malformed scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "demo.yaml:") {
				t.Fatalf("error %q does not lead with the file name", err)
			}
		})
	}
}

func TestUnknownKeyErrorCarriesLine(t *testing.T) {
	_, err := parse("demo.yaml", edit(t, "deadline: 5s", "deadlines: 5s"))
	if err == nil {
		t.Fatal("accepted unknown key")
	}
	// "deadline: 5s" sits on a known line of validDoc; assert the error
	// points at it rather than line 1.
	wantLine := 1 + strings.Count(validDoc[:strings.Index(validDoc, "deadline: 5s")], "\n")
	prefix := "demo.yaml:" + itoa(wantLine) + ":"
	if !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("error = %q, want prefix %q", err, prefix)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestParseSocketWorld pins the socket-world schema: transport + procs
// decode, and wire-level fault ops are accepted once the world has a
// wire for them to act on.
func TestParseSocketWorld(t *testing.T) {
	doc := `name: net
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
  - op: frame-corrupt
    rank: 3
gates:
  - metric: reconnects
    min: 1
  - metric: retransmits
    min: 1
  - metric: crc_errors
    min: 1
`
	cfg, err := parse("net.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.World.Transport != "tcp" || cfg.World.Procs != 3 || !cfg.World.SocketTransport() {
		t.Errorf("world = %+v", cfg.World)
	}
	if len(cfg.Faults) != 2 || cfg.Faults[0].Op != fault.OpSever || cfg.Faults[1].Op != fault.OpFrameCorrupt {
		t.Errorf("faults = %+v", cfg.Faults)
	}
	// The compiled injector carries the wire rules for nettrans.
	in := cfg.Injector(0)
	if in.Hit(fault.OpSever, 1) != nil {
		t.Error("sever nth 2 fired on the first occurrence")
	}
	if in.Hit(fault.OpSever, 1) == nil {
		t.Error("sever nth 2 did not fire on the second occurrence")
	}
}

func TestGatelessScenarioRejected(t *testing.T) {
	doc := "name: x\nworld:\n  groups: 1\n  ranks: 1\n  batches: 1\n"
	_, err := parse("demo.yaml", []byte(doc))
	if err == nil || !strings.Contains(err.Error(), "declares no gates") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name string) string {
		return "name: " + name + "\nworld:\n  groups: 1\n  ranks: 1\n  batches: 2\ngates:\n  - metric: retries\n    max: 0\n"
	}
	write("b.yaml", mk("bee"))
	write("a.yaml", mk("ay"))
	write("notes.txt", "not yaml")
	cfgs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Name != "ay" || cfgs[1].Name != "bee" {
		t.Fatalf("cfgs = %+v", cfgs)
	}

	write("c.yaml", mk("ay")) // duplicate scenario name
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("duplicate name not rejected: %v", err)
	}

	if _, err := LoadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no *.yaml scenarios") {
		t.Fatalf("empty dir not rejected: %v", err)
	}
}
