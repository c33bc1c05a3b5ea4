package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// launcherEnv marks a process as the benchmark's launcher.
const launcherEnv = "DISTFDK_BENCH_LAUNCHER"

// launcher is a child of the benchmark that starts every fdkrecon run and
// reports its rusage. It exists for peak_rss_mib: Linux starts a process's
// ru_maxrss at the peak resident set of the address space it was forked
// from, which for a direct child is the benchmark's own (references,
// projection stacks: more than any workload uses). The launcher holds
// nothing, so what it reports is fdkrecon's.
type launcher struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

type launchRequest struct {
	Bin  string   `json:"bin"`
	Args []string `json:"args"`
	// OneCPU confines fdkrecon, and the workers it spawns, to a single CPU
	// and calibrates that CPU before and after the run.
	OneCPU bool `json:"one_cpu"`
}

type launchReply struct {
	rep
	Err string `json:"err,omitempty"`
}

// startLauncher re-executes this binary in launcher mode.
func startLauncher() (*launcher, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), launcherEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &launcher{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// run has the launcher execute fdkrecon once.
func (l *launcher) run(bin string, args []string, oneCPU bool) (rep, error) {
	if err := l.enc.Encode(launchRequest{Bin: bin, Args: args, OneCPU: oneCPU}); err != nil {
		return rep{}, fmt.Errorf("launcher: %w", err)
	}
	var r launchReply
	if err := l.dec.Decode(&r); err != nil {
		return rep{}, fmt.Errorf("launcher: %w", err)
	}
	if r.Err != "" {
		return rep{}, errors.New(r.Err)
	}
	return r.rep, nil
}

// close ends the launcher and waits for it.
func (l *launcher) close() error {
	l.stdin.Close()
	return l.cmd.Wait()
}

// serveLauncher is the launcher's main loop: one request, one run, one
// reply, until the benchmark closes the pipe. It stays on one OS thread,
// whose CPU affinity the processes it starts inherit. One-CPU runs take the
// CPUs the launcher was given in turn, so that a core with a busy neighbour
// slows every other rep and not all of them; where the thread cannot be
// confined, GOMAXPROCS=1 stands in (a -world run then has one CPU per process).
func serveLauncher(in io.Reader, out io.Writer) {
	runtime.LockOSThread()
	all, ok := threadCPUs()
	cpus := all.list()
	dec, enc := json.NewDecoder(in), json.NewEncoder(out)
	for n := 0; ; {
		var req launchRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var env []string // nil: the launcher's own
		switch {
		case req.OneCPU && ok && confine(0, only(cpus[n%len(cpus)])):
			n++
		case req.OneCPU:
			env = append(os.Environ(), "GOMAXPROCS=1")
		case ok:
			confine(0, all)
		}
		var r launchReply
		var before float64
		if req.OneCPU {
			before = calibrate()
		}
		m, err := execCLI(req.Bin, req.Args, env)
		if err != nil {
			r.Err = err.Error()
		} else if r.rep = m; req.OneCPU {
			r.Calib = min(before, calibrate())
		}
		if err := enc.Encode(r); err != nil {
			return
		}
	}
}
