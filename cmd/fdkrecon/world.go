// Multi-process launch mode: -world N makes this invocation the
// coordinator (hub, proc 0) of an N-process socket world. It spawns the
// N-1 worker processes itself — the same binary re-exec'd with the
// internal -worker flags — wires everyone through internal/mpi/nettrans
// over loopback TCP (or a unix socket with -transport unix), and runs
// exactly the reconstruction the in-process mode runs: group leaders
// live on the coordinator, so only it touches the output volume and the
// journal; workers re-run the same batch loop and the same supervision
// decisions against a discard sink. A worker process dying mid-run
// surfaces on every survivor as the same typed rank loss the channel
// world produces, so -journal shrink-and-resume works unchanged across
// OS processes.
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/fault"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
)

// defaultNetDeadline bounds collectives in socket mode when the user set
// no -deadline: a lost process must surface typed, not hang the run. The
// coordinator forwards the resolved value, so every process agrees.
const defaultNetDeadline = 30 * time.Second

// netFlags carries the multi-process launch flags.
type netFlags struct {
	world     int    // >1: coordinator of a world of this many processes
	worker    bool   // internal: run as a spawned worker
	proc      int    // internal: this worker's process id
	procs     int    // internal: total process count
	transport string // tcp or unix
	connect   string // internal: the hub's address
}

func (nf netFlags) active() bool { return nf.world > 1 || nf.worker }

func (nf netFlags) validate() error {
	if nf.world > 1 && nf.worker {
		return fmt.Errorf("-world and -worker are mutually exclusive (-worker is spawned internally)")
	}
	if nf.worker && (nf.connect == "" || nf.proc < 1 || nf.procs < 2 || nf.proc >= nf.procs) {
		return fmt.Errorf("-worker needs -connect, -procs >= 2 and -proc in [1, procs)")
	}
	if nf.active() && nf.transport != "tcp" && nf.transport != "unix" {
		return fmt.Errorf("unknown -transport %q (tcp, unix)", nf.transport)
	}
	return nil
}

// socketWorld is one process's seat in the multi-process world: its
// nettrans endpoint, the registry its transport counters land in, and
// (coordinator only) the spawned worker processes.
type socketWorld struct {
	node    *nettrans.Node
	reg     *telemetry.Registry
	workers []*exec.Cmd
	sockDir string
	// severs is the read end of the pipe every worker inherits as fd 3 and
	// reports its transport.severs count on (reportSevers): a cut is
	// counted in the process that makes it, and a worker's registry dies
	// with the worker.
	severs *os.File
}

// startSocketWorld builds this process's endpoint. The coordinator
// listens first, then re-execs the binary once per worker with the
// forwarded reconstruction flags plus its own address; a worker just
// dials. Transport counters go to the run's shared registry when
// telemetry is on, so -metrics-json artifacts carry the transport.*
// evidence of any wire recovery.
func startSocketWorld(nf netFlags, inj *fault.Injector, run *telemetry.Run, forward []string) (*socketWorld, error) {
	sw := &socketWorld{reg: telemetry.NewRegistry()}
	if run != nil {
		sw.reg = run.Shared()
	}
	cfg := nettrans.Config{
		Network:   nf.transport,
		Injector:  inj,
		Telemetry: sw.reg,
	}
	if nf.worker {
		cfg.Proc, cfg.Procs, cfg.Addr = nf.proc, nf.procs, nf.connect
		// Each process owns a telemetry Run; partition the message-id
		// space so per-process artifacts never collide.
		cfg.MsgIDBase = int64(nf.proc) << 44
		node, err := nettrans.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		sw.node = node
		return sw, nil
	}

	cfg.Proc, cfg.Procs = 0, nf.world
	switch nf.transport {
	case "tcp":
		cfg.Addr = "127.0.0.1:0"
	case "unix":
		dir, err := os.MkdirTemp("", "fdkrecon-world-*")
		if err != nil {
			return nil, err
		}
		sw.sockDir = dir
		cfg.Addr = filepath.Join(dir, "hub.sock")
	}
	node, err := nettrans.NewNode(cfg)
	if err != nil {
		sw.cleanup()
		return nil, err
	}
	sw.node = node
	exe, err := os.Executable()
	if err != nil {
		sw.close()
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		sw.close()
		return nil, err
	}
	defer w.Close() // the workers hold the write end from here on
	sw.severs = r
	for p := 1; p < nf.world; p++ {
		args := []string{
			"-worker", "-proc", strconv.Itoa(p), "-procs", strconv.Itoa(nf.world),
			"-transport", nf.transport, "-connect", node.Addr(),
		}
		args = append(args, forward...)
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{w}
		if err := cmd.Start(); err != nil {
			sw.kill()
			sw.close()
			return nil, fmt.Errorf("spawn worker %d: %w", p, err)
		}
		sw.workers = append(sw.workers, cmd)
	}
	return sw, nil
}

// reportSevers is a worker's last act: its count of cuts made, one line on
// the inherited pipe. A -worker started by hand has no such pipe, and its
// fd 3 is whatever the runtime opened first: leave that alone.
func (sw *socketWorld) reportSevers() {
	f := os.NewFile(3, "severs")
	if st, err := f.Stat(); err != nil || st.Mode()&os.ModeNamedPipe == 0 {
		return
	}
	fmt.Fprintln(f, sw.reg.Snapshot().Counters["transport.severs"])
	f.Close()
}

// finish waits for every worker to exit cleanly and asserts the smoke
// contract — chaos that silently failed to fire is a failure: every one
// of the wantSevers -sever rules cut a connection, counted where the cut
// was made (here or in a worker), and each cut was repaired by a
// reconnect this hub took part in. A reconnect alone proves nothing; a
// spurious one would satisfy it with the fault layer inert.
func (sw *socketWorld) finish(wantSevers int) {
	for i, cmd := range sw.workers {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker proc %d: %v", i+1, err)
		}
	}
	counters := sw.reg.Snapshot().Counters
	severs := counters["transport.severs"]
	for {
		var n int64
		if _, err := fmt.Fscan(sw.severs, &n); err != nil {
			break // EOF: every worker has exited
		}
		severs += n
	}
	if severs != int64(wantSevers) {
		log.Fatalf("%d of %d -sever rules cut a connection (wire fault layer inert, or a rule names a rank or frame this world never has)", severs, wantSevers)
	}
	if got := counters["transport.reconnects"]; got < severs {
		log.Fatalf("%d severs but only %d reconnects at the hub", severs, got)
	}
	if n := len(sw.workers); n > 0 {
		fmt.Printf("socket world: %d worker processes exited cleanly\n", n)
	}
	sw.close()
}

// kill terminates any still-running workers (coordinator failure path).
func (sw *socketWorld) kill() {
	for _, cmd := range sw.workers {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

func (sw *socketWorld) close() {
	if sw.node != nil {
		sw.node.Close()
	}
	sw.cleanup()
}

func (sw *socketWorld) cleanup() {
	if sw.severs != nil {
		sw.severs.Close()
	}
	if sw.sockDir != "" {
		os.RemoveAll(sw.sockDir)
	}
}

// runFollower is a worker process's reconstruction driver: the same plan
// and batch loop as the coordinator, but slab output is discarded (group
// leaders live on proc 0, so no slab ever reaches a worker's sink) and
// supervise telemetry is suppressed so shared counters are not
// double-counted across processes. In journal mode the worker reopens
// the coordinator's journal each attempt — records are appended durably
// before any verdict is exchanged, so a post-restart reopen always sees
// every completed slab.
func runFollower(copts core.ClusterOptions, journal string, maxRestarts int, backoff time.Duration) {
	copts.Output = core.DiscardSink{}
	if journal == "" {
		if _, err := core.RunDistributed(copts); err != nil {
			log.Fatalf("worker: %v", err)
		}
		return
	}
	if _, err := core.Supervise(core.SuperviseOptions{
		Cluster: copts,
		OpenCheckpoint: func(fp string) (core.CheckpointLog, error) {
			return storage.OpenJournal(journal, fp)
		},
		MaxRestarts:    maxRestarts,
		RestartBackoff: backoff,
		Follower:       true,
	}); err != nil {
		log.Fatalf("worker: %v", err)
	}
}

// buildChaosInjector compiles the CLI chaos schedule: one-shot rank
// kills ("rank@batch,...") plus wire-level connection severs
// ("rank@nth,..." — the connection carrying that rank's nth outgoing
// frame is cut; the link must reconnect and replay). Returns nil when
// both specs are empty so the fault-free path keeps its nil-injector
// fast path. Every process receives the same schedule; a rule only
// fires on the process hosting its rank, so the world-wide schedule
// stays deterministic.
func buildChaosInjector(kills, severs string) (*fault.Injector, error) {
	if kills == "" && severs == "" {
		return nil, nil
	}
	var rules []fault.Rule
	for _, part := range splitSpec(severs) {
		rank, nth, err := parseAtPair(part)
		if err != nil {
			return nil, fmt.Errorf("bad -sever entry %q (want rank@nth, e.g. 1@2)", part)
		}
		rules = append(rules, fault.Rule{Op: fault.OpSever, Rank: rank, Nth: nth})
	}
	in := fault.NewInjector(1, rules...)
	for _, part := range splitSpec(kills) {
		rank, batch, err := parseAtPair(part)
		if err != nil {
			return nil, fmt.Errorf("bad -kill entry %q (want rank@batch, e.g. 1@1)", part)
		}
		in.ScheduleKill(rank, batch)
	}
	return in, nil
}

func splitSpec(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseAtPair(part string) (int, int, error) {
	var a, b int
	if _, err := fmt.Sscanf(part, "%d@%d", &a, &b); err != nil || fmt.Sprintf("%d@%d", a, b) != part {
		return 0, 0, fmt.Errorf("malformed %q", part)
	}
	if a < 0 || b < 0 {
		return 0, 0, fmt.Errorf("negative field in %q", part)
	}
	return a, b, nil
}
