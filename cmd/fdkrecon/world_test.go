package main

import (
	"regexp"
	"strings"
	"testing"

	"distfdk/internal/mpi/nettrans"
)

// filledProcs is the number of processes nettrans.AssignRanks gives a
// rank: with that many, none is empty; with one more, one is.
func TestFilledProcsMatchesAssignRanks(t *testing.T) {
	occupied := func(n, nr, procs int) int {
		t.Helper()
		live := make([]int, procs)
		for p := range live {
			live[p] = p
		}
		assign, err := nettrans.AssignRanks(n, nr, live, procs)
		if err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, ranks := range assign {
			if len(ranks) > 0 {
				used++
			}
		}
		return used
	}
	for groups := 1; groups <= 3; groups++ {
		for perGroup := 1; perGroup <= 4; perGroup++ {
			n, fill := groups*perGroup, filledProcs(groups, perGroup)
			if got := occupied(n, perGroup, fill); got != fill {
				t.Errorf("%d groups of %d over %d processes: %d host a rank", groups, perGroup, fill, got)
			}
			if got := occupied(n, perGroup, fill+1); got != fill {
				t.Errorf("%d groups of %d over %d processes: %d host a rank, want %d", groups, perGroup, fill+1, got, fill)
			}
		}
	}
}

// -world N past the processes the world's ranks fill is clamped to them,
// and the run says so: no worker is spawned to host nothing. A one-rank
// world fills the coordinator alone and runs in-process.
func TestWorldClampedToFilledProcesses(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-div", "16", "-n", "32", "-batches", "2", "-o", "w.fbk"}
	out := fdkrecon(t, dir, append(common, "-groups", "1", "-ranks", "2", "-world", "4")...)
	if !strings.Contains(out, "-world 4 is clamped to 2: the 1×2 ranks") || !strings.Contains(out, "socket world: 1 worker processes exited cleanly") {
		t.Errorf("-ranks 2 -world 4 was not clamped to 2 processes:\n%s", out)
	}
	out = fdkrecon(t, dir, append(common, "-world", "2")...)
	if !strings.Contains(out, "-world 2 is clamped to 1: the 1×1 ranks") || strings.Contains(out, "socket world") {
		t.Errorf("a one-rank -world 2 run was not clamped to the coordinator:\n%s", out)
	}
	out = fdkrecon(t, dir, append(common, "-groups", "1", "-ranks", "2", "-world", "2")...)
	if strings.Contains(out, "clamped") || !strings.Contains(out, "socket world: 1 worker processes exited cleanly") {
		t.Errorf("-ranks 2 -world 2 was clamped or spawned other than one worker:\n%s", out)
	}
}

// The reduce traffic a run prints is every rank's, wherever the rank
// lives: a -world run whose reducing ranks are on workers prints what the
// same world prints in-process, for one group of 2 ranks and one of 4 over
// 2 and 4 processes.
func TestWorldReduceTrafficMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	traffic := regexp.MustCompile(`reduce traffic ([0-9.]+) MiB`)
	printed := func(args ...string) string {
		t.Helper()
		out := fdkrecon(t, dir, append([]string{"-div", "16", "-n", "32", "-batches", "2", "-groups", "1", "-o", "r.fbk"}, args...)...)
		m := traffic.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: no reduce traffic in the output:\n%s", args, out)
		}
		return m[1]
	}
	for _, ranks := range []string{"2", "4"} {
		want := printed("-ranks", ranks)
		if want == "0.0" {
			t.Fatalf("-ranks %s in-process reduces nothing", ranks)
		}
		worlds := []string{"2"}
		if ranks == "4" {
			worlds = append(worlds, "4")
		}
		for _, world := range worlds {
			if got := printed("-ranks", ranks, "-world", world); got != want {
				t.Errorf("-ranks %s -world %s prints reduce traffic %s MiB, in-process %s MiB", ranks, world, got, want)
			}
		}
	}
}
