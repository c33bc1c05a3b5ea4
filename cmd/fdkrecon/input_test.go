package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"distfdk/internal/cpufeat"
	"distfdk/internal/dataset"
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

// noAVX2Env additionally masks AVX2 (and with it AVX-512) off in that
// process and, inherited, in its -world workers: the run of a host without
// it. noAVX512Env masks AVX-512 alone: the run of an AVX2-only host. Only
// this test binary reads them; the command has no switch for the spellings.
const (
	noAVX2Env   = "FDKRECON_TEST_NO_AVX2"
	noAVX512Env = "FDKRECON_TEST_NO_AVX512"
)

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		if os.Getenv(noAVX2Env) != "" {
			cpufeat.SetAVX2ForTest(false)
		}
		if os.Getenv(noAVX512Env) != "" {
			cpufeat.SetAVX512ForTest(false)
		}
		main()
		return
	}
	os.Exit(m.Run())
}

// fdkrecon runs the command line in a child process started in dir and
// returns its output. env adds to the child's environment.
func fdkrecon(t *testing.T, dir string, args ...string) string {
	t.Helper()
	return fdkreconEnv(t, dir, nil, args...)
}

func fdkreconEnv(t *testing.T, dir string, env []string, args ...string) string {
	t.Helper()
	out, err := fdkreconCmd(t, dir, env, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("fdkrecon %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func fdkreconCmd(t *testing.T, dir string, env []string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(append(os.Environ(), runMainEnv+"=1"), env...)
	return cmd
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

// A run without -in synthesises its projections (experiments.BuildScenario)
// and must reconstruct the bytes of a run that reads them from the
// container phantomgen writes for the same dataset and divisor — here
// synthesised on another worker count than the CLI's.
func TestSynthesisMatchesPhantomgenContainer(t *testing.T) {
	dir := t.TempDir()
	ds, err := dataset.ByName("tomo_00030")
	if err == nil {
		ds, err = ds.Scaled(8)
	}
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ds.System(32)
	if err != nil {
		t.Fatal(err)
	}
	// phantomgen -dataset tomo_00030 -div 8 -n 32 -workers 3 -o in.fbp
	stack, err := forward.Project(sys, ds.Phantom(), ds.FOV/2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteStack(filepath.Join(dir, "in.fbp"), stack); err != nil {
		t.Fatal(err)
	}
	common := []string{"-dataset", "tomo_00030", "-div", "8", "-n", "32"}
	fdkrecon(t, dir, append(common, "-in", "in.fbp", "-o", filepath.Join(dir, "file.fbk"))...)
	fdkrecon(t, dir, append(common, "-o", filepath.Join(dir, "synth.fbk"))...)
	file, err := os.ReadFile(filepath.Join(dir, "file.fbk"))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := os.ReadFile(filepath.Join(dir, "synth.fbk"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, synth) {
		t.Error("the synthesising run's volume differs from the run over phantomgen's container")
	}
}

// A -world run reconstructs the file it was given: the coordinator forwards
// -in to its workers, so a noisy input gives the bytes of the in-process
// run of the same flags, and the summary names the arithmetic that ran. It
// forwards the Z window too: formation checks only the rank assignment, so
// a worker that ran the whole volume would go unnoticed but for the bytes.
func TestWorldForwardsInput(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	// A relative -in, resolved against the coordinator's directory.
	common := []string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16", "-n", "32",
		"-groups", "1", "-ranks", "2"}

	out := fdkrecon(t, dir, append(common, "-o", filepath.Join(dir, "inproc.fbk"))...)
	if !strings.Contains(out, "kernel avx512") && !strings.Contains(out, "kernel avx2") && !strings.Contains(out, "kernel scalar") {
		t.Errorf("summary does not name the arithmetic:\n%s", out)
	}
	fdkrecon(t, dir, append(common, "-world", "2", "-o", filepath.Join(dir, "world.fbk"))...)
	window := []string{"-zlo", "8", "-znz", "16"}
	fdkrecon(t, dir, slices.Concat(common, window, []string{"-o", filepath.Join(dir, "inproc-window.fbk")})...)
	fdkrecon(t, dir, slices.Concat(common, window, []string{"-world", "2", "-o", filepath.Join(dir, "world-window.fbk")})...)
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
	if !bytes.Equal(read("inproc-window.fbk"), read("world-window.fbk")) {
		t.Error("-zlo -world 2 volume differs from the in-process run of the same window")
	}
	if bytes.Equal(inproc, read("synth.fbk")) {
		t.Error("noisy input reconstructs to the noiseless phantom's bytes: the comparison proves nothing")
	}
}

// A -sever rule must be seen to cut a connection, in whichever process
// hosts its rank (rank 1 lives in a worker, rank 0 in the coordinator); a
// rule that never fires fails the run even though the volume was written —
// a reconnect, real or spurious, is not accepted in its place.
func TestWorldSeverMustBeObserved(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-div", "16", "-n", "32", "-batches", "4", "-groups", "2", "-ranks", "2",
		"-world", "3", "-o", filepath.Join(dir, "w.fbk")}
	fdkrecon(t, dir, append(common, "-sever", "1@2,0@2")...)
	for _, inert := range []string{"9@2", "1@2,1@100000"} {
		out, err := fdkreconCmd(t, dir, nil, append(common, "-sever", inert)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-sever rules cut a connection") {
			t.Errorf("-sever %s (a rule that cannot fire): err %v\n%s", inert, err, out)
		}
	}
}

// The four command lines of the repository benchmark, at its -smoke sizing,
// do not depend on the host: with AVX-512 masked off, and with AVX2 masked
// off — in the coordinator and, under -world, in its workers — each writes
// the volume of the default run byte for byte and counts what it counted,
// kernel.dispatch.* aside: the fast kernel and the row filter each have one
// arithmetic and spellings of it, and the kernel's counters (kernel.simd_*
// included) are read off its span decisions, whatever width ran.
func TestBenchmarkRunsDoNotDependOnAVX2(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	ranks := []string{"-groups", "1", "-ranks", "2"}
	for _, w := range []struct {
		name string
		n    string
		args []string
	}{
		{"single-kernel", "32", nil},
		{"single-filter", "16", nil},
		{"ranks-inproc", "32", ranks},
		{"ranks-world", "32", append(ranks[:len(ranks):len(ranks)], "-world", "2")},
	} {
		// The kernel counters of every rank the artifact reports.
		run := func(tag string, env []string) ([]byte, []map[string]int64) {
			t.Helper()
			vol, metrics := filepath.Join(dir, w.name+tag+".fbk"), filepath.Join(dir, w.name+tag+".json")
			args := append([]string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16", "-n", w.n,
				"-o", vol, "-metrics-json", metrics}, w.args...)
			if w.args != nil {
				args = append(args, "-journal", filepath.Join(dir, w.name+tag+".journal"))
			}
			out := fdkreconEnv(t, dir, env, args...)
			names := func(spelling string) bool {
				return strings.Contains(out, "kernel "+spelling) || strings.Contains(out, "kernel ["+spelling)
			}
			switch tag {
			case "-noavx2":
				if names("avx") || !names("scalar") {
					t.Errorf("%s without AVX2: the summary does not name the Go spelling alone:\n%s", w.name, out)
				}
			case "-noavx512":
				if names("avx512") {
					t.Errorf("%s without AVX-512: the summary names it:\n%s", w.name, out)
				}
			}
			b, err := os.ReadFile(vol)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var artifact struct {
				Ranks []struct {
					Counters map[string]int64 `json:"counters"`
				} `json:"ranks"`
			}
			if err := json.Unmarshal(raw, &artifact); err != nil {
				t.Fatal(err)
			}
			var kernel []map[string]int64
			for _, r := range artifact.Ranks {
				k := map[string]int64{}
				for name, v := range r.Counters {
					if strings.HasPrefix(name, "kernel.") && !strings.HasPrefix(name, "kernel.dispatch.") {
						k[name] = v
					}
				}
				kernel = append(kernel, k)
			}
			return b, kernel
		}
		vol, counters := run("", nil)
		if len(counters) == 0 || len(counters[0]) < 5 || counters[0]["kernel.interior_samples"] == 0 {
			t.Errorf("%s: the artifact's kernel counters are missing or idle: %v", w.name, counters)
		}
		for _, mask := range []struct{ tag, env string }{{"-noavx512", noAVX512Env}, {"-noavx2", noAVX2Env}} {
			maskedVol, maskedCounters := run(mask.tag, []string{mask.env + "=1"})
			if !bytes.Equal(vol, maskedVol) {
				t.Errorf("%s: the volume of the %s run differs from the default run's", w.name, mask.tag)
			}
			if !reflect.DeepEqual(counters, maskedCounters) {
				t.Errorf("%s: kernel counters depend on the dispatch:\ndefault %v\n%s %v", w.name, counters, mask.tag, maskedCounters)
			}
		}
	}
}
