// Multi-process launch mode: -world N makes this invocation the
// coordinator (hub, proc 0) of an N-process socket world. It spawns the
// N-1 worker processes itself — the same binary re-exec'd with the
// internal -worker flags — wires everyone through internal/mpi/nettrans
// over loopback TCP, and runs exactly the reconstruction the in-process
// mode runs: group leaders live on the coordinator, so only it touches the
// output volume and the journal; workers re-run the same batch loop and the
// same supervision decisions against a discard sink. A worker process dying
// mid-run surfaces on every survivor as the same typed rank loss the
// channel world produces, so -journal shrink-and-resume works unchanged
// across OS processes.
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/telemetry"
)

// defaultNetDeadline bounds collectives in socket mode when the user set
// no -deadline: a lost process must surface typed, not hang the run. The
// coordinator forwards the resolved value, so every process agrees.
const defaultNetDeadline = 30 * time.Second

// netFlags carries the multi-process launch flags.
type netFlags struct {
	world   int    // >1: coordinator of a world of this many processes
	worker  bool   // internal: run as a spawned worker
	proc    int    // internal: this worker's process id
	procs   int    // internal: total process count
	connect string // internal: the hub's address
}

func (nf netFlags) active() bool { return nf.world > 1 || nf.worker }

func (nf netFlags) validate() error {
	if nf.world > 1 && nf.worker {
		return fmt.Errorf("-world and -worker are mutually exclusive (-worker is spawned internally)")
	}
	if nf.worker && (nf.connect == "" || nf.proc < 1 || nf.procs < 2 || nf.proc >= nf.procs) {
		return fmt.Errorf("-worker needs -connect, -procs >= 2 and -proc in [1, procs)")
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
	// reports is the read end of the pipe every worker inherits as fd 3
	// and reports its transport.severs count and its ranks' reduce traffic
	// on (report): a cut is counted in the process that makes it, a send
	// in the process that sends it, and a worker's registry dies with the
	// worker.
	reports *os.File
}

// filledProcs is how many processes a world of groups groups of perGroup
// ranks gives a rank: nettrans.AssignRanks puts every group leader on the
// coordinator and deals the other ranks to the workers, so a process past
// one per non-leader would host none.
func filledProcs(groups, perGroup int) int { return 1 + groups*(perGroup-1) }

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

	cfg.Proc, cfg.Procs, cfg.Addr = 0, nf.world, "127.0.0.1:0"
	node, err := nettrans.NewNode(cfg)
	if err != nil {
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
	sw.reports = r
	for p := 1; p < nf.world; p++ {
		args := []string{
			"-worker", "-proc", strconv.Itoa(p), "-procs", strconv.Itoa(nf.world),
			"-connect", node.Addr(),
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

// report is a worker's last act: its count of cuts made and its ranks'
// reduce traffic in bytes, one line on the inherited pipe. A -worker
// started by hand has no such pipe, and its fd 3 is whatever the runtime
// opened first: leave that alone.
func (sw *socketWorld) report(reduced int64) {
	f := os.NewFile(3, "reports")
	if st, err := f.Stat(); err != nil || st.Mode()&os.ModeNamedPipe == 0 {
		return
	}
	fmt.Fprintln(f, sw.reg.Snapshot().Counters["transport.severs"], reduced)
	f.Close()
}

// finish waits for every worker to exit cleanly and asserts the smoke
// contract — chaos that silently failed to fire is a failure: every one
// of the wantSevers -sever rules cut a connection, counted where the cut
// was made (here or in a worker), and each cut was repaired by a
// reconnect this hub took part in. A reconnect alone proves nothing; a
// spurious one would satisfy it with the fault layer inert. It returns
// the reduce traffic the workers' ranks sent.
func (sw *socketWorld) finish(wantSevers int) (reduced int64) {
	for i, cmd := range sw.workers {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker proc %d: %v", i+1, err)
		}
	}
	counters := sw.reg.Snapshot().Counters
	severs := counters["transport.severs"]
	for {
		var n, b int64
		if _, err := fmt.Fscan(sw.reports, &n, &b); err != nil {
			break // EOF: every worker has exited
		}
		severs, reduced = severs+n, reduced+b
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
	return reduced
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
	if sw.reports != nil {
		sw.reports.Close()
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
