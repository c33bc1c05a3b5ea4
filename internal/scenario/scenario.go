// Package scenario is the declarative chaos layer of the framework: fault
// scenarios written in YAML — a world shape, a warmup/inject/recovery
// phase schedule, fault rules on the load/store/send/recv edges and on the
// socket wire, scheduled rank kills, and per-scenario event-count gates —
// compiled into fault.Injector configurations and replayed through
// core.RunDistributed/core.Supervise beside one fault-free reference run.
// Every injected run must end the way the scenario expects, reconstruct the
// reference's bytes when that way is success, and hold every count gate;
// cmd/slogate turns those verdicts into a CI release wall. It measures no
// time: performance is bench/'s to record.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"distfdk/internal/fault"
)

// Config is one fully-validated scenario.
type Config struct {
	// Path is the source file, used in error messages and reports.
	Path string `json:"path,omitempty"`
	// Name identifies the scenario in reports ([a-z0-9-]+).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed names the deterministic fault schedule; per-run injectors use
	// Seed+run so repeated runs decorrelate delays while staying
	// reproducible.
	Seed int64 `json:"seed"`
	// Runs is how many seeded injected runs follow the one fault-free
	// reference run (default 3).
	Runs  int         `json:"runs"`
	World WorldConfig `json:"world"`
	// Phases cuts the batch axis into warmup/inject/recovery windows.
	Phases PhaseConfig  `json:"phases"`
	Faults []FaultRule  `json:"faults,omitempty"`
	Kills  []Kill       `json:"kills,omitempty"`
	Retry  *RetryConfig `json:"retry,omitempty"`
	// Supervise enables the shrink-and-resume supervisor; implied by a
	// non-empty kill schedule.
	Supervise *SuperviseConfig `json:"supervise,omitempty"`
	// Deadline bounds collectives so a dead peer surfaces typed instead of
	// hanging the gate (default 10s whenever kills are scheduled, 20s on
	// socket-transport worlds).
	Deadline time.Duration `json:"deadline,omitempty"`
	// Expect is the demanded outcome of every injected run: "success"
	// (default), "restart-budget", "world-too-small" or "rank-lost" —
	// degradation must be predictable, so even "the run fails" is an
	// assertion, not an accident.
	Expect string `json:"expect"`
	Gates  []Gate `json:"gates"`
}

// WorldConfig shapes the reconstruction the scenario replays: the
// experiments.BuildScenario synthetic twin and the decomposition plan.
type WorldConfig struct {
	Dataset string `json:"dataset"`
	Div     int    `json:"div"`
	N       int    `json:"n"`
	Groups  int    `json:"groups"`
	Ranks   int    `json:"ranks"`
	Batches int    `json:"batches"`
	// Transport selects how ranks talk: "chan" (default) keeps the
	// in-process world; "tcp" or "unix" replays every run over an
	// in-process socket fleet (nettrans) — real kernel sockets, framing,
	// heartbeats and reconnects — which is what makes wire-level fault
	// rules (frame-drop, frame-corrupt, frame-dup, frame-delay, sever)
	// meaningful.
	Transport string `json:"transport,omitempty"`
	// Procs is the socket fleet's process count (hub + workers); required
	// (≥ 2) when Transport is tcp or unix, forbidden otherwise.
	Procs int `json:"procs,omitempty"`
}

// SocketTransport reports whether the world runs over the socket fleet.
func (w WorldConfig) SocketTransport() bool {
	return w.Transport == "tcp" || w.Transport == "unix"
}

// PhaseConfig is the declarative form of fault.PhaseSchedule.
type PhaseConfig struct {
	Warmup int `json:"warmup"`
	Inject int `json:"inject"`
}

// FaultRule is the declarative form of fault.Rule.
type FaultRule struct {
	Op    string `json:"op"`
	Rank  int    `json:"rank"` // fault.AnyRank for "any"
	Class string `json:"class,omitempty"`
	// Nth and Count window the rule over the per-(op, rank) occurrence
	// sequence — a count with rank "any" fires that many times on EVERY
	// rank, not in total.
	Nth   int           `json:"nth,omitempty"`
	Count int           `json:"count,omitempty"` // fault.Every for "every"
	Delay time.Duration `json:"delay,omitempty"`
	Phase string        `json:"phase,omitempty"`
}

// Kill schedules a one-shot rank death at a batch boundary.
type Kill struct {
	Rank  int `json:"rank"`
	Batch int `json:"batch"`
}

// RetryConfig is the declarative form of fault.RetryPolicy.
type RetryConfig struct {
	MaxAttempts int           `json:"max_attempts"`
	BaseDelay   time.Duration `json:"base_delay,omitempty"`
	MaxDelay    time.Duration `json:"max_delay,omitempty"`
}

// SuperviseConfig bounds the shrink-and-resume supervisor.
type SuperviseConfig struct {
	MaxRestarts    int           `json:"max_restarts"`
	RestartBackoff time.Duration `json:"restart_backoff,omitempty"`
}

// Gate is one release assertion over an event count: the scenario
// breaches when the count of any single injected run falls below Min or
// above Max.
type Gate struct {
	Metric string `json:"metric"`
	Min    *int64 `json:"min,omitempty"`
	Max    *int64 `json:"max,omitempty"`
}

// Outcome names for Config.Expect and RunMetrics.Outcome.
const (
	OutcomeSuccess       = "success"
	OutcomeRestartBudget = "restart-budget"
	OutcomeWorldTooSmall = "world-too-small"
	OutcomeRankLost      = "rank-lost"
	OutcomeError         = "error"
)

// Metrics gates may reference: event counts of one injected run, each
// seeded or a plain tally, none a measured time.
var metricCatalog = map[string]string{
	"faults_injected": "faults (errors and delays) the schedule fired",
	"retries":         "total retry re-attempts across ranks",
	"backoff_total":   "total backoff the retry policy computed from its seed (ns)",
	"restarts":        "supervised world relaunches",
	"lost_ranks":      "ranks declared dead across attempts",
	"severs":          "socket-transport connections cut by a fired sever rule",
	"reconnects":      "socket-transport connection re-establishments (both link ends count)",
	"retransmits":     "socket-transport frames re-sent through replay after a sever, drop or corruption",
	"crc_errors":      "socket-transport frames rejected by the CRC check",
}

// MetricHelp returns the catalog line for a metric name.
func MetricHelp(name string) string { return metricCatalog[name] }

// MetricNames returns the gateable metric names, sorted.
func MetricNames() []string {
	out := make([]string, 0, len(metricCatalog))
	for n := range metricCatalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Load reads and validates one scenario file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// LoadDir loads every *.yaml / *.yml under dir, sorted by filename.
func LoadDir(dir string) ([]*Config, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cfgs []*Config
	seen := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".yaml" && ext != ".yml" {
			continue
		}
		cfg, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[cfg.Name]; dup {
			return nil, fmt.Errorf("%s: scenario name %q already used by %s", cfg.Path, cfg.Name, prev)
		}
		seen[cfg.Name] = cfg.Path
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("scenario: no *.yaml scenarios under %s", dir)
	}
	return cfgs, nil
}

// Parse validates data as one scenario. Every error carries path:line.
func Parse(path string, data []byte) (*Config, error) {
	root, err := parseYAML(path, data)
	if err != nil {
		return nil, err
	}
	d := &dec{path: path}
	cfg := &Config{Path: path, Seed: 1, Runs: 3, Expect: OutcomeSuccess}
	d.allowKeys(root, "scenario",
		"name", "description", "seed", "runs", "world", "phases",
		"faults", "kills", "retry", "supervise", "deadline", "expect", "gates")

	cfg.Name = d.reqString(root, "name")
	if d.err == nil && !validName(cfg.Name) {
		d.fail(root.keyLn["name"], "name", "want lowercase [a-z0-9-]+, got %q", cfg.Name)
	}
	cfg.Description = d.optString(root, "description", "")
	cfg.Seed = d.optInt64(root, "seed", cfg.Seed)
	cfg.Runs = d.optInt(root, "runs", cfg.Runs)
	if d.err == nil && cfg.Runs < 1 {
		d.fail(root.keyLn["runs"], "runs", "want at least 1, got %d", cfg.Runs)
	}

	d.decodeWorld(root, cfg)
	d.decodePhases(root, cfg)
	d.decodeFaults(root, cfg)
	d.decodeKills(root, cfg)
	d.decodeRetry(root, cfg)
	d.decodeSupervise(root, cfg)
	cfg.Deadline = d.optDuration(root, "deadline", 0)
	if d.err == nil && cfg.Deadline < 0 {
		d.fail(root.keyLn["deadline"], "deadline", "must not be negative")
	}
	cfg.Expect = d.optString(root, "expect", cfg.Expect)
	if d.err == nil {
		switch cfg.Expect {
		case OutcomeSuccess, OutcomeRestartBudget, OutcomeWorldTooSmall, OutcomeRankLost:
		default:
			d.fail(root.keyLn["expect"], "expect", "unknown outcome %q (success, restart-budget, world-too-small, rank-lost)", cfg.Expect)
		}
	}
	d.decodeGates(root, cfg)
	if d.err != nil {
		return nil, d.err
	}
	if err := crossValidate(path, root, cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return true
}

// crossValidate checks constraints that span fields.
func crossValidate(path string, root *node, cfg *Config) error {
	w := cfg.World
	if w.Groups*w.Ranks < 1 {
		return fmt.Errorf("%s:%d: world: needs at least one rank", path, root.keyLn["world"])
	}
	if cfg.Phases.Warmup >= w.Batches {
		return fmt.Errorf("%s:%d: phases.warmup: %d warmup batches consume the whole run (batches: %d)",
			path, root.keyLn["phases"], cfg.Phases.Warmup, w.Batches)
	}
	for _, k := range cfg.Kills {
		if k.Batch >= w.Batches {
			return fmt.Errorf("%s:%d: kills: batch %d out of range (world has %d batches)",
				path, root.keyLn["kills"], k.Batch, w.Batches)
		}
		if k.Rank >= w.Groups*w.Ranks {
			return fmt.Errorf("%s:%d: kills: rank %d out of range (world has %d ranks)",
				path, root.keyLn["kills"], k.Rank, w.Groups*w.Ranks)
		}
	}
	for _, f := range cfg.Faults {
		if f.Rank != fault.AnyRank && f.Rank >= w.Groups*w.Ranks {
			return fmt.Errorf("%s:%d: faults: rank %d out of range (world has %d ranks)",
				path, root.keyLn["faults"], f.Rank, w.Groups*w.Ranks)
		}
		if isWireOp(f.Op) && !w.SocketTransport() {
			return fmt.Errorf("%s:%d: faults: op %q needs world.transport tcp or unix (an in-process world has no wire)",
				path, root.keyLn["faults"], f.Op)
		}
	}
	if len(cfg.Gates) == 0 {
		return fmt.Errorf("%s:%d: gates: scenario declares no gates (nothing to assert)", path, root.line)
	}
	return nil
}

// isWireOp reports whether op acts on the socket wire below the frame
// codec (meaningful only when the world runs over tcp or unix).
func isWireOp(op string) bool {
	switch op {
	case fault.OpFrameDrop, fault.OpFrameCorrupt, fault.OpFrameDup,
		fault.OpFrameDelay, fault.OpSever:
		return true
	}
	return false
}

// Injector compiles the scenario's fault schedule for one run. Runs are
// decorrelated by salting the seed with the run index; rules and kills are
// identical across runs, so occurrence-counted faults stay deterministic.
func (c *Config) Injector(run int) *fault.Injector {
	rules := make([]fault.Rule, 0, len(c.Faults))
	for _, f := range c.Faults {
		r := fault.Rule{Op: f.Op, Rank: f.Rank, Nth: f.Nth, Count: f.Count,
			Delay: f.Delay, Phase: f.Phase}
		if f.Class == "permanent" {
			r.Class = fault.Permanent
		}
		rules = append(rules, r)
	}
	in := fault.NewInjector(c.Seed+int64(run), rules...)
	for _, k := range c.Kills {
		in.ScheduleKill(k.Rank, k.Batch)
	}
	in.SetPhaseSchedule(fault.PhaseSchedule{
		WarmupBatches: c.Phases.Warmup,
		InjectBatches: c.Phases.Inject,
	})
	return in
}

// RetryPolicy compiles the scenario's retry section (nil when absent).
func (c *Config) RetryPolicy() *fault.RetryPolicy {
	if c.Retry == nil {
		return nil
	}
	return &fault.RetryPolicy{
		MaxAttempts: c.Retry.MaxAttempts,
		BaseDelay:   c.Retry.BaseDelay,
		MaxDelay:    c.Retry.MaxDelay,
		Seed:        c.Seed,
	}
}

// Supervised reports whether the scenario runs under core.Supervise.
func (c *Config) Supervised() bool {
	return c.Supervise != nil || len(c.Kills) > 0
}

// dec is the schema decoder: first error wins, every error carries
// path:line: field.
type dec struct {
	path string
	err  error
}

func (d *dec) fail(line int, field, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s:%d: %s: %s", d.path, line, field, fmt.Sprintf(format, args...))
	}
}

// allowKeys rejects keys outside the schema, naming the closest context.
func (d *dec) allowKeys(n *node, field string, allowed ...string) {
	if d.err != nil || n == nil || n.kind != mapNode {
		return
	}
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	for _, k := range n.keys {
		if !ok[k] {
			d.fail(n.keyLn[k], field, "unknown key %q (allowed: %s)", k, strings.Join(allowed, ", "))
			return
		}
	}
}

func (d *dec) scalarOf(n *node, key, field string) (*node, int, bool) {
	if d.err != nil {
		return nil, 0, false
	}
	c, ok := n.child(key)
	if !ok {
		return nil, 0, false
	}
	if c.kind != scalarNode {
		d.fail(n.keyLn[key], field, "want a scalar, got a %s", c.kind)
		return nil, 0, false
	}
	return c, n.keyLn[key], true
}

func (d *dec) reqString(n *node, key string) string {
	if d.err != nil {
		return ""
	}
	if _, ok := n.child(key); !ok {
		d.fail(n.line, key, "required key missing")
		return ""
	}
	return d.optString(n, key, "")
}

func (d *dec) optString(n *node, key, def string) string {
	c, _, ok := d.scalarOf(n, key, key)
	if !ok {
		return def
	}
	return c.scalar
}

func (d *dec) optInt(n *node, key string, def int) int {
	return int(d.optInt64(n, key, int64(def)))
}

func (d *dec) optInt64(n *node, key string, def int64) int64 {
	c, line, ok := d.scalarOf(n, key, key)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(c.scalar, 10, 64)
	if err != nil {
		d.fail(line, key, "want an integer, got %q", c.scalar)
		return def
	}
	return v
}

func (d *dec) optDuration(n *node, key string, def time.Duration) time.Duration {
	c, line, ok := d.scalarOf(n, key, key)
	if !ok {
		return def
	}
	v, err := time.ParseDuration(c.scalar)
	if err != nil {
		d.fail(line, key, "want a duration (e.g. 250ms), got %q", c.scalar)
		return def
	}
	return v
}

// count parses a gate bound. Every gateable metric is an event count, so a
// bound is a plain non-negative integer.
func (d *dec) count(n *node, key, field string) *int64 {
	c, line, ok := d.scalarOf(n, key, field)
	if !ok {
		return nil
	}
	v, err := strconv.ParseInt(c.scalar, 10, 64)
	if err != nil || c.quoted || v < 0 {
		d.fail(line, field, "want a non-negative integer count, got %q", c.scalar)
		return nil
	}
	return &v
}

func (d *dec) decodeWorld(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	w, ok := root.child("world")
	if !ok {
		d.fail(root.line, "world", "required section missing")
		return
	}
	if w.kind != mapNode {
		d.fail(root.keyLn["world"], "world", "want a mapping, got a %s", w.kind)
		return
	}
	d.allowKeys(w, "world", "dataset", "div", "n", "groups", "ranks", "batches",
		"transport", "procs")
	cfg.World = WorldConfig{
		Dataset:   d.optString(w, "dataset", "tomo_00030"),
		Div:       d.optInt(w, "div", 16),
		N:         d.optInt(w, "n", 32),
		Groups:    d.optInt(w, "groups", 0),
		Ranks:     d.optInt(w, "ranks", 0),
		Batches:   d.optInt(w, "batches", 0),
		Transport: d.optString(w, "transport", "chan"),
		Procs:     d.optInt(w, "procs", 0),
	}
	if d.err != nil {
		return
	}
	switch cfg.World.Transport {
	case "chan", "tcp", "unix":
	default:
		d.fail(w.keyLn["transport"], "world.transport",
			"unknown transport %q (chan, tcp, unix)", cfg.World.Transport)
		return
	}
	if cfg.World.SocketTransport() {
		if cfg.World.Procs < 2 {
			line := w.keyLn["procs"]
			if line == 0 {
				line = w.keyLn["transport"]
			}
			d.fail(line, "world.procs", "a %s world needs at least 2 processes (hub + workers)", cfg.World.Transport)
			return
		}
	} else if cfg.World.Procs != 0 {
		d.fail(w.keyLn["procs"], "world.procs", "only meaningful with transport tcp or unix")
		return
	}
	for _, f := range []struct {
		key string
		v   int
	}{{"groups", cfg.World.Groups}, {"ranks", cfg.World.Ranks}, {"batches", cfg.World.Batches}} {
		if f.v <= 0 {
			line := w.keyLn[f.key]
			if line == 0 {
				line = root.keyLn["world"]
			}
			d.fail(line, "world."+f.key, "want a positive integer")
			return
		}
	}
	if cfg.World.Div <= 0 || cfg.World.N <= 0 {
		d.fail(root.keyLn["world"], "world", "div and n must be positive")
	}
}

func (d *dec) decodePhases(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	p, ok := root.child("phases")
	if !ok {
		return // no schedule: the whole run is one inject window
	}
	if p.kind != mapNode {
		d.fail(root.keyLn["phases"], "phases", "want a mapping, got a %s", p.kind)
		return
	}
	d.allowKeys(p, "phases", "warmup", "inject")
	cfg.Phases = PhaseConfig{
		Warmup: d.optInt(p, "warmup", 0),
		Inject: d.optInt(p, "inject", 0),
	}
	if d.err == nil && (cfg.Phases.Warmup < 0 || cfg.Phases.Inject < 0) {
		d.fail(root.keyLn["phases"], "phases", "warmup and inject must not be negative")
	}
}

func (d *dec) decodeFaults(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	f, ok := root.child("faults")
	if !ok {
		return
	}
	if f.kind != seqNode {
		d.fail(root.keyLn["faults"], "faults", "want a sequence of rules, got a %s", f.kind)
		return
	}
	for i, item := range f.items {
		field := fmt.Sprintf("faults[%d]", i)
		if item.kind != mapNode {
			d.fail(item.line, field, "want a mapping, got a %s", item.kind)
			return
		}
		d.allowKeys(item, field, "op", "rank", "class", "nth", "count", "delay", "phase")
		r := FaultRule{
			Op:    d.reqString(item, "op"),
			Rank:  fault.AnyRank,
			Class: d.optString(item, "class", "transient"),
			Nth:   d.optInt(item, "nth", 0),
			Delay: d.optDuration(item, "delay", 0),
			Phase: d.optString(item, "phase", ""),
		}
		if d.err != nil {
			return
		}
		switch r.Op {
		case fault.OpLoad, fault.OpStore, fault.OpSend, fault.OpRecv:
		case fault.OpFrameDrop, fault.OpFrameCorrupt, fault.OpFrameDup,
			fault.OpFrameDelay, fault.OpSever:
			// Wire-level ops act below the frame codec; only a socket world
			// has a wire for them to act on (checked in crossValidate, which
			// sees the world section whatever the key order).
		default:
			d.fail(item.keyLn["op"], field+".op",
				"unknown operation %q (load, store, send, recv, frame-drop, frame-corrupt, frame-dup, frame-delay, sever)", r.Op)
			return
		}
		switch r.Class {
		case "transient", "permanent":
		default:
			d.fail(item.keyLn["class"], field+".class", "unknown class %q (transient, permanent)", r.Class)
			return
		}
		switch r.Phase {
		case "", fault.PhaseWarmup, fault.PhaseInject, fault.PhaseRecovery:
		default:
			d.fail(item.keyLn["phase"], field+".phase", "unknown phase %q (warmup, inject, recovery)", r.Phase)
			return
		}
		if rankStr := d.optString(item, "rank", "any"); rankStr != "any" {
			v, err := strconv.Atoi(rankStr)
			if err != nil || v < 0 {
				d.fail(item.keyLn["rank"], field+".rank", "want \"any\" or a rank index, got %q", rankStr)
				return
			}
			r.Rank = v
		}
		if countStr := d.optString(item, "count", "1"); countStr == "every" {
			r.Count = fault.Every
		} else {
			v, err := strconv.Atoi(countStr)
			if err != nil || v < 1 {
				d.fail(item.keyLn["count"], field+".count", "want \"every\" or a positive count, got %q", countStr)
				return
			}
			r.Count = v
		}
		if d.err != nil {
			return
		}
		cfg.Faults = append(cfg.Faults, r)
	}
}

func (d *dec) decodeKills(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	k, ok := root.child("kills")
	if !ok {
		return
	}
	if k.kind != seqNode {
		d.fail(root.keyLn["kills"], "kills", "want a sequence, got a %s", k.kind)
		return
	}
	for i, item := range k.items {
		field := fmt.Sprintf("kills[%d]", i)
		if item.kind != mapNode {
			d.fail(item.line, field, "want a mapping with rank and batch, got a %s", item.kind)
			return
		}
		d.allowKeys(item, field, "rank", "batch")
		kill := Kill{
			Rank:  d.optInt(item, "rank", -1),
			Batch: d.optInt(item, "batch", -1),
		}
		if d.err != nil {
			return
		}
		if kill.Rank < 0 || kill.Batch < 0 {
			d.fail(item.line, field, "rank and batch are required and must not be negative")
			return
		}
		cfg.Kills = append(cfg.Kills, kill)
	}
}

func (d *dec) decodeRetry(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	r, ok := root.child("retry")
	if !ok {
		return
	}
	if r.kind != mapNode {
		d.fail(root.keyLn["retry"], "retry", "want a mapping, got a %s", r.kind)
		return
	}
	d.allowKeys(r, "retry", "max_attempts", "base_delay", "max_delay")
	cfg.Retry = &RetryConfig{
		MaxAttempts: d.optInt(r, "max_attempts", 0),
		BaseDelay:   d.optDuration(r, "base_delay", 0),
		MaxDelay:    d.optDuration(r, "max_delay", 0),
	}
}

func (d *dec) decodeSupervise(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	s, ok := root.child("supervise")
	if !ok {
		return
	}
	if s.kind != mapNode {
		d.fail(root.keyLn["supervise"], "supervise", "want a mapping, got a %s", s.kind)
		return
	}
	d.allowKeys(s, "supervise", "max_restarts", "restart_backoff")
	cfg.Supervise = &SuperviseConfig{
		MaxRestarts:    d.optInt(s, "max_restarts", 0),
		RestartBackoff: d.optDuration(s, "restart_backoff", 0),
	}
}

func (d *dec) decodeGates(root *node, cfg *Config) {
	if d.err != nil {
		return
	}
	g, ok := root.child("gates")
	if !ok {
		return // crossValidate rejects gateless scenarios with a clearer message
	}
	if g.kind != seqNode {
		d.fail(root.keyLn["gates"], "gates", "want a sequence, got a %s", g.kind)
		return
	}
	for i, item := range g.items {
		field := fmt.Sprintf("gates[%d]", i)
		if item.kind != mapNode {
			d.fail(item.line, field, "want a mapping, got a %s", item.kind)
			return
		}
		d.allowKeys(item, field, "metric", "min", "max")
		gate := Gate{Metric: d.reqString(item, "metric")}
		if d.err != nil {
			return
		}
		if _, known := metricCatalog[gate.Metric]; !known {
			d.fail(item.keyLn["metric"], field+".metric",
				"unknown metric %q (known: %s)", gate.Metric, strings.Join(MetricNames(), ", "))
			return
		}
		gate.Min = d.count(item, "min", field+".min")
		gate.Max = d.count(item, "max", field+".max")
		if d.err != nil {
			return
		}
		switch {
		case gate.Min == nil && gate.Max == nil:
			d.fail(item.line, field, "gate needs min, max or both")
			return
		case gate.Max == nil && *gate.Min == 0:
			d.fail(item.keyLn["min"], field, "min 0 alone cannot fail (a count is never negative)")
			return
		case gate.Min != nil && gate.Max != nil && *gate.Min > *gate.Max:
			d.fail(item.keyLn["min"], field, "min %d above max %d: no count passes", *gate.Min, *gate.Max)
			return
		}
		cfg.Gates = append(cfg.Gates, gate)
	}
}
