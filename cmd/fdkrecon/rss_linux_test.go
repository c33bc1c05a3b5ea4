package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"distfdk/internal/alloctest"
)

// peakEnv makes the test binary a launcher: it runs its command line as
// fdkrecon in a child and prints the child's ru_maxrss in KiB. A child of
// the test process itself would report the test process's peak when that
// is the larger: Linux starts a vfork'd child's maxrss at its parent's
// high-water mark. The launcher is small, so its child's figure is the
// child's own.
const peakEnv = "FDKRECON_TEST_PEAK"

func init() {
	if os.Getenv(peakEnv) == "" {
		return
	}
	os.Unsetenv(peakEnv)
	exe, err := os.Executable()
	if err == nil {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		cmd.Stderr = os.Stderr
		if err = cmd.Run(); err == nil {
			fmt.Println(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)
			os.Exit(0)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// peakRSS runs an fdkrecon command line in dir through the launcher and
// returns the child's peak resident set in bytes; with -world the figure
// covers the worker processes too, whose peaks the child reaps.
func peakRSS(t *testing.T, dir string, args ...string) int64 {
	t.Helper()
	out := fdkreconEnv(t, dir, []string{peakEnv + "=1"}, args...)
	kib, err := strconv.ParseInt(strings.TrimSpace(out), 10, 64)
	if err != nil {
		t.Fatalf("fdkrecon %s: launcher printed %q", strings.Join(args, " "), out)
	}
	if kib == 0 {
		t.Skip("this kernel reports no ru_maxrss")
	}
	return kib << 10
}

// A one-rank run streams its volume to -o, so its peak resident set
// follows the ring and the one slab, not n³: two problems over one input
// whose volumes differ 8× (64³ is 1 MiB, 128³ is 8 MiB), both under one
// device budget (-devmem 1) that holds the ring and the slab but neither
// volume, peak within half the larger volume of each other, and each writes
// the bytes of its run without the budget. Thin slabs (-batches 32) keep the
// one slab's share of the difference small, the race detector's shadow of
// it included.
func TestPeakRSSDoesNotTrackVolume(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	run := []string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16", "-batches", "32"}
	peak := func(n string) int64 {
		return peakRSS(t, dir, append(run, "-n", n, "-devmem", "1", "-o", "v"+n+".fbk")...)
	}
	small, large := peak("64"), peak("128")
	t.Logf("peak RSS %.1f MiB at 64³, %.1f MiB at 128³", float64(small)/(1<<20), float64(large)/(1<<20))
	if d := large - small; d >= 128*128*128*4/2 || -d >= 128*128*128*4/2 {
		t.Error("the peaks differ by half the 128³ volume or more: the run holds its volume")
	}
	sum := func(name string) [sha256.Size]byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	for _, n := range []string{"64", "128"} {
		fdkrecon(t, dir, append(run, "-n", n, "-o", "in-core"+n+".fbk")...)
		if got, want := sum("v"+n+".fbk"), sum("in-core"+n+".fbk"); got != want {
			t.Errorf("%s³ under -devmem 1: sha256 %x, without the budget %x", n, got, want)
		}
	}
}

// The socket world holds what the channel world holds: a rank sends at
// most mpi.SendWindow messages ahead of its receiver, and each message's
// frames go back to the arena when its credit returns. So the distributed
// reconstruction over two processes peaks within 1 MiB of the same run in
// one — a worker that ran ahead held most of the 3.4 MiB it reduces into
// rank 0 — and writes the same bytes. The race runtime's shadow memory
// alone spreads the two peaks by about that much, so a race build compares
// only the bytes; `make check` also runs this test without -race.
func TestPeakRSSWorldMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	peak := func(name string, world ...string) int64 {
		return peakRSS(t, dir, append([]string{"-in", "in.fbp", "-dataset", "tomo_00030",
			"-div", "16", "-n", "96", "-groups", "1", "-ranks", "2",
			"-journal", name + ".journal", "-o", name + ".fbk"}, world...)...)
	}
	inproc, world := peak("inproc"), peak("world", "-world", "2")
	t.Logf("peak RSS %.2f MiB in process, %.2f MiB over two processes", float64(inproc)/(1<<20), float64(world)/(1<<20))
	if !alloctest.Race && world-inproc > 1<<20 {
		t.Error("the socket world peaks more than 1 MiB above the in-process world: a sender runs ahead of its receiver")
	}
	a, err := os.ReadFile(filepath.Join(dir, "inproc.fbk"))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "world.fbk")); err != nil || !bytes.Equal(a, b) {
		t.Errorf("the -world 2 volume differs from the in-process one (%v)", err)
	}
}
