package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"distfdk/internal/experiments"
	"distfdk/internal/filter"
	"distfdk/internal/forward"
	"distfdk/internal/storage"
)

// runMainEnv makes the test binary behave as fdkrecon: TestMain hands the
// process to main(). A -world coordinator re-executes os.Executable() for
// its workers and they inherit the variable, so whole multi-process runs
// work from `go test` without building the command first.
const runMainEnv = "FDKRECON_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fdkrecon runs the command line in a child process started in dir and
// returns its output.
func fdkrecon(t *testing.T, dir string, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fdkrecon %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// noisyInput writes the seeded noisy projections of tomo_00030 at div 16.
func noisyInput(t *testing.T, path string) {
	t.Helper()
	sc, err := experiments.BuildScenario("tomo_00030", 16, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := forward.AddPoissonNoise(sc.Stack, &filter.Beer{Blank: 1e4}, 7); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteStack(path, sc.Stack); err != nil {
		t.Fatal(err)
	}
}

// With -in the geometry comes from the registry and the projections from
// the file: no phantom is forward-projected to be thrown away. Without it
// the scenario's projections are the source. The dims check and its text
// are the CLI's contract with scripts.
func TestResolveInput(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in.fbp")
	noisyInput(t, in)
	noSynthesis := func(string, int, int, int) (*experiments.Scenario, error) {
		t.Error("-in built a Scenario")
		return nil, errors.New("unexpected synthesis")
	}

	sys, src, err := resolveInput(in, "tomo_00030", 16, 32, 1, noSynthesis)
	if err != nil {
		t.Fatal(err)
	}
	defer src.(io.Closer).Close()
	want, err := experiments.BuildScenario("tomo_00030", 16, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *sys != *want.Sys {
		t.Errorf("geometry from the registry %+v differs from the scenario's %+v", *sys, *want.Sys)
	}
	if _, ok := src.(*storage.FileSource); !ok {
		t.Errorf("-in source is %T, want the file", src)
	}

	_, _, err = resolveInput(in, "tomo_00030", 8, 32, 1, noSynthesis)
	if err == nil || !strings.Contains(err.Error(), "does not match tomo_00030/8 geometry") {
		t.Errorf("div mismatch: %v", err)
	}
	if _, _, err := resolveInput(filepath.Join(t.TempDir(), "missing.fbp"), "tomo_00030", 16, 32, 1, noSynthesis); err == nil {
		t.Error("missing input accepted")
	}
	if _, _, err := resolveInput(in, "no-such-dataset", 16, 32, 1, noSynthesis); err == nil {
		t.Error("unknown dataset accepted")
	}

	calls := 0
	sys, src, err = resolveInput("", "tomo_00030", 16, 32, 1, func(name string, div, outN, workers int) (*experiments.Scenario, error) {
		calls++
		return experiments.BuildScenario(name, div, outN, workers)
	})
	if err != nil || calls != 1 || *sys != *want.Sys || src == nil {
		t.Errorf("no -in: %d syntheses, sys %+v, src %v, err %v", calls, sys, src, err)
	}
}

// A -world run reconstructs the file it was given: the coordinator forwards
// -in to its workers, so a noisy input gives the bytes of the in-process
// run of the same flags, and the summary names the arithmetic that ran.
func TestWorldForwardsInput(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	// A relative -in, resolved against the coordinator's directory.
	common := []string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16", "-n", "32",
		"-groups", "1", "-ranks", "2"}

	out := fdkrecon(t, dir, append(common, "-o", filepath.Join(dir, "inproc.fbk"))...)
	if !strings.Contains(out, "kernel avx2") && !strings.Contains(out, "kernel scalar") {
		t.Errorf("summary does not name the arithmetic:\n%s", out)
	}
	fdkrecon(t, dir, append(common, "-world", "2", "-o", filepath.Join(dir, "world.fbk"))...)
	fdkrecon(t, dir, "-dataset", "tomo_00030", "-div", "16", "-n", "32", "-groups", "1", "-ranks", "2",
		"-o", filepath.Join(dir, "synth.fbk"))

	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	inproc := read("inproc.fbk")
	if !bytes.Equal(inproc, read("world.fbk")) {
		t.Error("-world 2 volume differs from the in-process run of the same noisy input")
	}
	if bytes.Equal(inproc, read("synth.fbk")) {
		t.Error("noisy input reconstructs to the noiseless phantom's bytes: the comparison proves nothing")
	}
}
