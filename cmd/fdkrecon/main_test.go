package main

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/fault"
)

func TestValidateRunFlags(t *testing.T) {
	// The flag defaults must validate — otherwise every invocation dies.
	if err := validateRunFlags(core.DefaultBatchCount, 0, 1, core.DefaultMaxRestarts, core.DefaultRestartBackoff, 0); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validateRunFlags(1, 0, 1, 0, time.Second, 30*time.Second); err != nil {
		t.Fatalf("explicit zero budget rejected: %v", err)
	}

	cases := []struct {
		name     string
		batches  int
		devmem   int64
		workers  int
		restarts int
		backoff  time.Duration
		deadline time.Duration
		wantFlag string
	}{
		{"negative batches", -3, 0, 1, 3, time.Second, 0, "batches"},
		{"negative devmem", 8, -5, 1, 3, time.Second, 0, "devmem"},
		{"negative workers", 8, 0, -2, 3, time.Second, 0, "workers"},
		{"negative budget", 8, 0, 1, -1, time.Second, 0, "max-restarts"},
		{"very negative budget", 8, 0, 1, -99, time.Second, 0, "max-restarts"},
		{"zero backoff", 8, 0, 1, 3, 0, 0, "restart-backoff"},
		{"negative backoff", 8, 0, 1, 3, -time.Millisecond, 0, "restart-backoff"},
		{"negative deadline", 8, 0, 1, 3, time.Second, -time.Second, "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateRunFlags(tc.batches, tc.devmem, tc.workers, tc.restarts, tc.backoff, tc.deadline)
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

// The flag table is the command's flags: every flag `fdkrecon -h` lists is
// named in commonReads or in some modeReads entry, and every name there is
// a flag. A deleted flag left in the table, or a new flag missing from it,
// fails here.
func TestFlagTableNamesEveryFlag(t *testing.T) {
	out, _ := fdkreconCmd(t, t.TempDir(), nil, "-h").CombinedOutput()
	var defined []string
	for _, line := range strings.Split(string(out), "\n") {
		// The test binary also lists the testing package's -test.* flags.
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  -") && !strings.HasPrefix(f[0], "-test.") {
			defined = append(defined, strings.TrimPrefix(f[0], "-"))
		}
	}
	if len(defined) == 0 {
		t.Fatalf("fdkrecon -h listed no flags:\n%s", out)
	}
	table := strings.Fields(commonReads)
	for _, names := range modeReads {
		table = append(table, strings.Fields(names)...)
	}
	slices.Sort(defined)
	slices.Sort(table)
	if table = slices.Compact(table); !slices.Equal(defined, table) {
		t.Errorf("fdkrecon -h defines %v,\nthe flag table names %v", defined, table)
	}
}

// A flag the chosen mode never reads is refused, naming the flag and the
// mode; the command lines the benchmark, the make targets and a -world
// coordinator's workers run are accepted. A one-rank run is a world of one,
// so it reads every world flag. Set flags arrive in flag.Visit's order,
// lexicographic.
func TestRefuseUnread(t *testing.T) {
	for _, tc := range []struct {
		algo       string
		zlo        int
		set        string
		flag, mode string // the refused flag and its mode; "" accepts
	}{
		{"fdk", -1, "", "", ""},
		{"fdk", -1, "dataset div in metrics-json n o trace-out", "", ""},
		{"fdk", -1, "dataset div groups in journal n o ranks world", "", ""},
		{"fdk", -1, "batches connect dataset deadline devmem div groups in journal kill max-restarts n proc procs ranks restart-backoff sever window worker workers", "", ""},
		{"fdk", 20, "div n o slice stats zlo znz", "", ""},
		{"fdk", 20, "batches devmem div n o timeline zlo znz", "", ""},
		{"sirt", -1, "algo div iters n o stats", "", ""},
		{"fdk", 10, "div groups in journal n o world zlo znz", "", ""},
		{"fdk", 10, "batches connect deadline div groups journal n proc procs ranks worker zlo znz", "", ""},
		{"fdk", 10, "div in journal n o zlo znz", "", ""},
		{"fdk", -1, "div journal kill max-restarts n o", "", ""},
		{"fdk", -1, "div n o world", "", ""},
		{"fdk", -1, "groups ranks timeline", "", ""},
		{"fdk", -1, "div n o znz", "znz", "without -zlo"},
		{"fdk", -1, "div groups n o ranks znz", "znz", "without -zlo"},
		{"sirt", 10, "algo div n zlo znz", "zlo", "-algo"},
		{"sirt", -1, "algo div n ranks", "ranks", "-algo"},
		{"sirt", -1, "algo window", "window", "-algo"},
		{"sirt", -1, "algo journal", "journal", "-algo"},
		{"fdk", -1, "iters ranks", "iters", "fdk"},
		{"fdk", -1, "div groups kill max-restarts n ranks", "max-restarts", "without -journal"},
		{"fdk", -1, "groups ranks restart-backoff world", "restart-backoff", "without -journal"},
		{"fdk", 10, "batches connect deadline div groups max-restarts n proc procs ranks worker zlo znz", "max-restarts", "without -journal"},
		{"fdk", -1, "max-restarts", "max-restarts", "without -journal"},
	} {
		err := refuseUnread(tc.algo, tc.zlo, strings.Fields(tc.set))
		if tc.flag == "" {
			if err != nil {
				t.Errorf("-algo %s -zlo %d, flags %q: refused: %v", tc.algo, tc.zlo, tc.set, err)
			}
			continue
		}
		var fe *FlagError
		if !errors.As(err, &fe) || fe.Flag != tc.flag || !strings.Contains(fe.Reason, tc.mode) {
			t.Errorf("-algo %s -zlo %d, flags %q: %v, want -%s refused in %s mode", tc.algo, tc.zlo, tc.set, err, tc.flag, tc.mode)
		}
	}
}

// The refusal is the command's: an iterative run given multi-rank flags
// exits non-zero before it reads its input, and writes neither -o nor
// -journal.
func TestUnreadFlagFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	out, err := fdkreconCmd(t, dir, nil, "-div", "16", "-n", "32", "-algo", "sirt",
		"-groups", "2", "-world", "2", "-journal", "j", "-o", "sirt.fbk").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-groups: not read in -algo mode") {
		t.Fatalf("err %v, want -groups refused:\n%s", err, out)
	}
	for _, name := range []string{"sirt.fbk", "j"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("the refused run left %s behind: %v", name, err)
		}
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
		{world: 4},
		{worker: true, proc: 1, procs: 4, connect: "127.0.0.1:9"},
	}
	for _, nf := range ok {
		if err := nf.validate(); err != nil {
			t.Errorf("%+v rejected: %v", nf, err)
		}
	}
	bad := []netFlags{
		{world: 4, worker: true, proc: 1, procs: 4, connect: "x"},
		{worker: true}, // no connect/proc/procs
		{worker: true, proc: 0, procs: 4, connect: "x"}, // proc 0 is the coordinator
		{worker: true, proc: 4, procs: 4, connect: "x"}, // proc out of range
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
