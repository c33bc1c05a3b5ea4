package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/fault"
	"distfdk/internal/telemetry"
)

func TestValidateRunFlags(t *testing.T) {
	// The flag defaults must validate — otherwise every invocation dies.
	if err := validateRunFlags(core.DefaultMaxRestarts, core.DefaultRestartBackoff, 0); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validateRunFlags(0, time.Second, 30*time.Second); err != nil {
		t.Fatalf("explicit zero budget rejected: %v", err)
	}

	cases := []struct {
		name     string
		restarts int
		backoff  time.Duration
		deadline time.Duration
		wantFlag string
	}{
		{"negative budget", -1, time.Second, 0, "max-restarts"},
		{"very negative budget", -99, time.Second, 0, "max-restarts"},
		{"zero backoff", 3, 0, 0, "restart-backoff"},
		{"negative backoff", 3, -time.Millisecond, 0, "restart-backoff"},
		{"negative deadline", 3, time.Second, -time.Second, "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateRunFlags(tc.restarts, tc.backoff, tc.deadline)
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			var fe *FlagError
			if !errors.As(err, &fe) {
				t.Fatalf("error is %T, want *FlagError", err)
			}
			if fe.Flag != tc.wantFlag {
				t.Fatalf("flagged -%s, want -%s (%v)", fe.Flag, tc.wantFlag, err)
			}
		})
	}
}

// A flag the chosen mode never reads is refused, naming the flag and the
// mode; the command lines the benchmark, the make targets and a -world
// coordinator's workers run are accepted. Set flags arrive in flag.Visit's
// order, lexicographic.
func TestRefuseUnread(t *testing.T) {
	for _, tc := range []struct {
		algo       string
		zlo, ranks int
		set        string
		flag, mode string // the refused flag and its mode; "" accepts
	}{
		{"fdk", -1, 1, "", "", ""},
		{"fdk", -1, 1, "dataset div in metrics-json n o trace-out", "", ""},
		{"fdk", -1, 2, "dataset div groups in journal n o ranks world", "", ""},
		{"fdk", -1, 4, "batches connect dataset deadline devmem div groups in journal kill max-restarts n proc procs ranks restart-backoff sever transport window worker workers", "", ""},
		{"fdk", 20, 1, "div n o slice stats zlo znz", "", ""},
		{"sirt", -1, 1, "algo div iters n o stats", "", ""},
		{"fdk", 10, 4, "div groups in journal n o world zlo znz", "groups", "-zlo"},
		{"fdk", 10, 1, "div in journal n o zlo znz", "journal", "-zlo"},
		{"sirt", -1, 2, "algo div n ranks", "ranks", "-algo"},
		{"sirt", -1, 1, "algo window", "window", "-algo"},
		{"fdk", -1, 2, "groups ranks timeline", "timeline", "multi-rank"},
		{"fdk", -1, 1, "journal", "journal", "single-rank"},
		{"fdk", -1, 1, "kill", "kill", "single-rank"},
		{"fdk", -1, 1, "world", "world", "single-rank"},
		{"fdk", -1, 2, "iters ranks", "iters", "multi-rank"},
	} {
		err := refuseUnread(tc.algo, tc.zlo, tc.ranks, strings.Fields(tc.set))
		if tc.flag == "" {
			if err != nil {
				t.Errorf("-algo %s -zlo %d, %d ranks, flags %q: refused: %v", tc.algo, tc.zlo, tc.ranks, tc.set, err)
			}
			continue
		}
		var fe *FlagError
		if !errors.As(err, &fe) || fe.Flag != tc.flag || !strings.Contains(fe.Reason, tc.mode+" mode") {
			t.Errorf("-algo %s -zlo %d, %d ranks, flags %q: %v, want -%s refused in %s mode", tc.algo, tc.zlo, tc.ranks, tc.set, err, tc.flag, tc.mode)
		}
	}
}

// The refusal is the command's: an ROI run given multi-rank flags exits
// non-zero before it reads its input, and writes neither -o nor -journal.
func TestUnreadFlagFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	out, err := fdkreconCmd(t, dir, nil, "-div", "16", "-n", "32", "-zlo", "10", "-znz", "4",
		"-groups", "2", "-world", "2", "-journal", "j", "-o", "roi.fbk").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-groups: not read in -zlo mode") {
		t.Fatalf("err %v, want -groups refused:\n%s", err, out)
	}
	for _, name := range []string{"roi.fbk", "j"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("the refused run left %s behind: %v", name, err)
		}
	}
}

// An explicit `-max-restarts 0` must reach core as "no restarts", not as
// core's 0-means-default sentinel.
func TestRestartBudgetTranslation(t *testing.T) {
	if got := restartBudget(0); got >= 0 {
		t.Errorf("restartBudget(0) = %d, want negative (no restarts)", got)
	}
	if got := restartBudget(3); got != 3 {
		t.Errorf("restartBudget(3) = %d", got)
	}
}

func TestBuildChaosInjector(t *testing.T) {
	in, err := buildChaosInjector("1@1, 2@0", "")
	if err != nil {
		t.Fatal(err)
	}
	if in.PendingKills() != 2 {
		t.Errorf("pending kills = %d, want 2", in.PendingKills())
	}
	for _, bad := range []string{"1", "a@b", "1@", "@1", "1@1@1", "1@-2x"} {
		if _, err := buildChaosInjector(bad, ""); err == nil {
			t.Errorf("accepted bad kill spec %q", bad)
		}
		if _, err := buildChaosInjector("", bad); err == nil {
			t.Errorf("accepted bad sever spec %q", bad)
		}
	}
	// Both specs empty: nil injector, keeping the fault-free fast path.
	if in, err := buildChaosInjector("", ""); err != nil || in != nil {
		t.Errorf("empty specs = (%v, %v), want (nil, nil)", in, err)
	}
	// A sever spec compiles into a wire rule that fires at its nth
	// occurrence for the named rank only.
	in, err = buildChaosInjector("", "1@2")
	if err != nil {
		t.Fatal(err)
	}
	if in.Hit(fault.OpSever, 1) != nil {
		t.Error("sever fired on the first occurrence")
	}
	if in.Hit(fault.OpSever, 1) == nil {
		t.Error("sever did not fire on the second occurrence")
	}
	if in.Hit(fault.OpSever, 2) != nil {
		t.Error("sever fired for a foreign rank")
	}
}

// TestNetFlagsValidate pins the multi-process flag contract.
func TestNetFlagsValidate(t *testing.T) {
	ok := []netFlags{
		{},
		{world: 4, transport: "tcp"},
		{world: 2, transport: "unix"},
		{worker: true, proc: 1, procs: 4, transport: "tcp", connect: "127.0.0.1:9"},
	}
	for _, nf := range ok {
		if err := nf.validate(); err != nil {
			t.Errorf("%+v rejected: %v", nf, err)
		}
	}
	bad := []netFlags{
		{world: 4, worker: true, proc: 1, procs: 4, transport: "tcp", connect: "x"},
		{world: 4, transport: "carrier-pigeon"},
		{worker: true, transport: "tcp"},                                  // no connect/proc/procs
		{worker: true, proc: 0, procs: 4, transport: "tcp", connect: "x"}, // proc 0 is the coordinator
		{worker: true, proc: 4, procs: 4, transport: "tcp", connect: "x"}, // proc out of range
	}
	for _, nf := range bad {
		if err := nf.validate(); err == nil {
			t.Errorf("%+v accepted", nf)
		}
	}
	if (netFlags{}).active() || !(netFlags{world: 2}).active() || !(netFlags{worker: true}).active() {
		t.Error("active() disagrees with the flag semantics")
	}
}

// An explicit -pprof on a busy port must surface as a typed error from
// servePprof before any reconstruction work starts — the CLI fails fast
// instead of running unobservable.
func TestServePprofBindFailure(t *testing.T) {
	run := telemetry.NewRun(1)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	_, err = servePprof(busy.Addr().String(), run)
	if err == nil {
		t.Fatal("servePprof bound a busy port")
	}
	var se *telemetry.ServeError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *telemetry.ServeError", err)
	}
	if se.Addr != busy.Addr().String() {
		t.Errorf("ServeError.Addr = %q, want %q", se.Addr, busy.Addr().String())
	}
	if se.Unwrap() == nil {
		t.Error("ServeError carries no cause")
	}

	// A free port succeeds and serves immediately.
	srv, err := servePprof("127.0.0.1:0", run)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Error("bound server reports no address")
	}
}

// startStatusPoll with a non-positive interval is inert — the closer it
// returns must be safe to call with no endpoint at all.
func TestStartStatusPollDisabled(t *testing.T) {
	finish := startStatusPoll("127.0.0.1:1", 0)
	finish() // must not fatal or block
}
