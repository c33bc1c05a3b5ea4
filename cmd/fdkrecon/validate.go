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

// commonReads names the flags every mode reads: the input, the output and
// its views, the width and -algo. modeReads names the flags each mode reads
// on top of them.
const commonReads = "dataset div n in o slice stats workers algo"

var modeReads = map[string]string{
	"-algo": "iters",
	"fdk": "window zlo znz groups ranks batches devmem timeline trace-out metrics-json " +
		"journal max-restarts restart-backoff deadline kill world sever worker proc procs connect",
}

// refuseUnread picks the run's mode — -algo other than fdk, else fdk, one
// world of any size — and refuses the first explicitly set flag that mode
// would ignore: a flag that changes nothing is a mistake at the CLI surface,
// not a no-op. -znz is read only with a window, so it needs -zlo; only a
// journaled run restarts, so -max-restarts and -restart-backoff need
// -journal.
func refuseUnread(algo string, zlo int, set []string) error {
	mode := "fdk"
	if algo != "fdk" {
		mode = "-algo"
	}
	reads := strings.Fields(commonReads + " " + modeReads[mode])
	for _, name := range set {
		if !slices.Contains(reads, name) {
			return &FlagError{Flag: name, Reason: fmt.Sprintf("not read in %s mode", mode)}
		}
		if name == "znz" && zlo < 0 {
			return &FlagError{Flag: name, Reason: "not read without -zlo"}
		}
		if (name == "max-restarts" || name == "restart-backoff") && !slices.Contains(set, "journal") {
			return &FlagError{Flag: name, Reason: "not read without -journal"}
		}
	}
	return nil
}

// validateRunFlags rejects the flag corner cases that would otherwise be
// silently reinterpreted deep inside core: a batch count below one, a
// negative device memory budget (which would run unlimited) and a worker
// count below one (which would run GOMAXPROCS workers); a negative restart
// budget is refused by core.Supervise only once the world is built, a
// non-positive backoff silently becomes the default, and a negative deadline
// would arm collectives with an already-expired timer. All of them are almost
// certainly typos at the CLI surface, so they fail loudly here instead.
//
// -devmem 0 and -deadline 0 stay legal: they are the documented
// "unlimited" and "wait for world teardown" modes, not degenerate values.
func validateRunFlags(batches int, devmemMiB int64, workers, maxRestarts int, restartBackoff, deadline time.Duration) error {
	if batches < 1 {
		return &FlagError{Flag: "batches",
			Reason: fmt.Sprintf("batch count must be at least 1 (got %d)", batches)}
	}
	if devmemMiB < 0 {
		return &FlagError{Flag: "devmem",
			Reason: fmt.Sprintf("device memory budget must not be negative (got %d); use 0 for unlimited", devmemMiB)}
	}
	if workers < 1 {
		return &FlagError{Flag: "workers",
			Reason: fmt.Sprintf("worker count must be at least 1 (got %d)", workers)}
	}
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
