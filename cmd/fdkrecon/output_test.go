package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distfdk/internal/storage"
	"distfdk/internal/volume"
)

// Every -o streams through a SlabWriter — a whole volume, a Z window, a
// multi-rank world, an iterative volume: a run that succeeds promotes the
// file, whose header is the run's output, and its -slice is the central
// slice of that file; a run that fails part way leaves an existing -o byte
// for byte as it was. Without -journal it leaves no partial file behind;
// with one (and a budget of 0, so a lost rank fails it) it keeps the partial
// file and the journal, and the same command without the kill resumes them
// into the uninterrupted run's bytes.
func TestOutputIsPromotedOrUntouched(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	input := []string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16"}
	run := func(name string, args ...string) []string {
		return slices.Concat(input, []string{"-n", "32"}, args, []string{"-o", filepath.Join(dir, name+".fbk")})
	}
	for _, mode := range []struct {
		name string
		args []string
		want volume.Header
	}{
		{"full", nil, volume.Header{NX: 32, NY: 32, NZ: 32}},
		{"window", []string{"-zlo", "20", "-znz", "8"}, volume.Header{NX: 32, NY: 32, NZ: 8, Z0: 20}},
		{"ranks", []string{"-groups", "2", "-ranks", "2"}, volume.Header{NX: 32, NY: 32, NZ: 32}},
		{"sirt", []string{"-algo", "sirt", "-iters", "2"}, volume.Header{NX: 32, NY: 32, NZ: 32}},
	} {
		out := filepath.Join(dir, mode.name+".fbk")
		fdkrecon(t, dir, append(run(mode.name, mode.args...), "-slice", "slice.pgm")...)
		vol, err := volume.LoadRaw(out)
		if err != nil {
			t.Fatal(err)
		}
		if vol.Header() != mode.want {
			t.Errorf("%s: -o holds %v, want %v", mode.name, vol.Header(), mode.want)
		}
		if err := vol.SavePGM(filepath.Join(dir, "ref.pgm"), vol.NZ/2, 0, 0); err != nil {
			t.Fatal(err)
		}
		slice, _ := os.ReadFile(filepath.Join(dir, "slice.pgm"))
		ref, _ := os.ReadFile(filepath.Join(dir, "ref.pgm"))
		if len(slice) == 0 || !bytes.Equal(slice, ref) {
			t.Errorf("%s: -slice differs from the central slice of the promoted -o", mode.name)
		}
		if _, err := os.Stat(out + storage.PartialSuffix); !os.IsNotExist(err) {
			t.Errorf("%s: a successful run left its partial file: %v", mode.name, err)
		}
	}

	ranks := run("ranks", "-groups", "2", "-ranks", "2")
	journal := filepath.Join(dir, "ranks.journal")
	for _, mode := range []struct {
		name, out string
		args      []string // the failing run's flags but for -kill
		kill      string   // the rank@batch the failing run loses
		journal   string
	}{
		{"full", "full.fbk", run("full"), "0@2", ""},
		{"window", "window.fbk", run("window", "-zlo", "20", "-znz", "8"), "0@2", ""},
		{"ranks", "ranks.fbk", ranks, "1@1", ""},
		{"journaled", "ranks.fbk", slices.Concat(ranks, []string{"-journal", journal, "-max-restarts", "0"}), "1@1", journal},
	} {
		out := filepath.Join(dir, mode.out)
		before, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		partial := out + storage.PartialSuffix
		if output, err := fdkreconCmd(t, dir, nil, slices.Concat(mode.args, []string{"-kill", mode.kill})...).CombinedOutput(); err == nil || !strings.Contains(string(output), "rank-kill") {
			t.Fatalf("%s: the run losing rank %s: err %v, want a failed run:\n%s", mode.name, mode.kill, err, output)
		}
		after, err := os.ReadFile(out)
		if err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the failed run changed the existing -o (err %v)", mode.name, err)
		}
		if mode.journal == "" {
			if _, err := os.Stat(partial); !os.IsNotExist(err) {
				t.Errorf("%s: the failed run left its partial file: %v", mode.name, err)
			}
			continue
		}
		for _, kept := range []string{partial, mode.journal} {
			if _, err := os.Stat(kept); err != nil {
				t.Fatalf("%s: the failed run did not keep %s: %v", mode.name, kept, err)
			}
		}
		// The same command without the kill resumes, and -o is again the
		// uninterrupted run's volume.
		fdkrecon(t, dir, mode.args...)
		if after, err := os.ReadFile(out); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the resumed run did not promote the uninterrupted bytes (err %v)", mode.name, err)
		}
		for _, gone := range []string{partial, mode.journal} {
			if _, err := os.Stat(gone); !os.IsNotExist(err) {
				t.Errorf("%s: the resumed run left %s: %v", mode.name, gone, err)
			}
		}
	}
}

// A one-rank run is a world of one, so it takes the world's flags: with
// -journal and a budget of 0, losing its rank fails the run, which keeps the
// partial file and the journal, and the same command without the kill
// resumes them into the uninterrupted run's bytes; -world 2 writes the
// in-process run's bytes too.
func TestOneRankRunResumes(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	input := []string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16", "-n", "32", "-batches", "4"}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fdkrecon(t, dir, slices.Concat(input, []string{"-o", "ref.fbk"})...)
	want := read("ref.fbk")

	out, journal := filepath.Join(dir, "one.fbk"), filepath.Join(dir, "one.journal")
	resume := slices.Concat(input, []string{"-o", out, "-journal", journal, "-max-restarts", "0"})
	if output, err := fdkreconCmd(t, dir, nil, slices.Concat(resume, []string{"-kill", "0@2"})...).CombinedOutput(); err == nil || !strings.Contains(string(output), "rank-kill") {
		t.Fatalf("the run losing rank 0: err %v, want a failed run:\n%s", err, output)
	}
	for _, kept := range []string{out + storage.PartialSuffix, journal} {
		if _, err := os.Stat(kept); err != nil {
			t.Fatalf("the failed run did not keep %s: %v", kept, err)
		}
	}
	if output := fdkrecon(t, dir, resume...); !strings.Contains(output, "resuming") {
		t.Errorf("the rerun did not resume the partial file:\n%s", output)
	}
	if !bytes.Equal(read("one.fbk"), want) {
		t.Error("the resumed run did not promote the uninterrupted bytes")
	}
	for _, gone := range []string{out + storage.PartialSuffix, journal} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("the resumed run left %s: %v", gone, err)
		}
	}

	fdkrecon(t, dir, slices.Concat(input, []string{"-world", "2", "-o", "world.fbk"})...)
	if !bytes.Equal(read("world.fbk"), want) {
		t.Error("the one-rank -world 2 run differs from the in-process run")
	}
}
