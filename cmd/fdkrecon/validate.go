package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// FlagError is a typed rejection of a flag value, so tests (and future
// callers embedding the CLI) can assert on which flag was bad instead of
// string-matching log output.
type FlagError struct {
	Flag   string
	Reason string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("-%s: %s", e.Flag, e.Reason)
}

// modeReads names the flags each mode reads on top of the input, the
// output and its views, the width and -algo, which every mode reads.
var modeReads = map[string]string{
	"-algo":       "iters",
	"-zlo":        "window zlo znz devmem",
	"single-rank": "window zlo groups ranks batches devmem timeline trace-out metrics-json pprof status-poll",
	"multi-rank": "window zlo groups ranks batches devmem trace-out metrics-json pprof status-poll " +
		"journal max-restarts restart-backoff deadline kill world transport sever worker proc procs connect",
}

// refuseUnread picks the run's mode — -algo other than fdk, else -zlo ≥ 0,
// else single- or multi-rank by the world's size — and refuses the first
// explicitly set flag that mode would ignore: a flag that changes nothing
// is a mistake at the CLI surface, not a no-op.
func refuseUnread(algo string, zlo, ranks int, set []string) error {
	mode := "multi-rank"
	switch {
	case algo != "fdk":
		mode = "-algo"
	case zlo >= 0:
		mode = "-zlo"
	case ranks == 1:
		mode = "single-rank"
	}
	reads := strings.Fields("dataset div n in o slice stats workers algo " + modeReads[mode])
	for _, name := range set {
		if !slices.Contains(reads, name) {
			return &FlagError{Flag: name, Reason: fmt.Sprintf("not read in %s mode", mode)}
		}
	}
	return nil
}

// validateRunFlags rejects the flag corner cases that would otherwise be
// silently reinterpreted deep inside core: a negative restart budget
// means "no restarts" to core.Supervise, a non-positive backoff silently
// becomes the default, and a negative deadline would arm collectives
// with an already-expired timer. All three are almost certainly typos at
// the CLI surface, so they fail loudly here instead.
//
// -deadline 0 stays legal: it is the documented "wait for world
// teardown" mode, not a degenerate timeout.
func validateRunFlags(maxRestarts int, restartBackoff, deadline time.Duration) error {
	if maxRestarts < 0 {
		return &FlagError{Flag: "max-restarts",
			Reason: fmt.Sprintf("restart budget must not be negative (got %d); use 0 to run with no restarts", maxRestarts)}
	}
	if restartBackoff <= 0 {
		return &FlagError{Flag: "restart-backoff",
			Reason: fmt.Sprintf("backoff must be positive (got %v)", restartBackoff)}
	}
	if deadline < 0 {
		return &FlagError{Flag: "deadline",
			Reason: fmt.Sprintf("deadline must not be negative (got %v); use 0 to wait for world teardown", deadline)}
	}
	return nil
}

// restartBudget translates the CLI flag to core.Supervise's convention.
// At the CLI, `-max-restarts 0` reads as "do not restart" — but core
// treats 0 as "use the default budget" and negatives as "no restarts",
// so a literal pass-through would silently turn an explicit 0 into 3.
func restartBudget(flagValue int) int {
	if flagValue == 0 {
		return -1
	}
	return flagValue
}
