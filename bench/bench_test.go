package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's launcher, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(launcherEnv) != "" {
		serveLauncher(os.Stdin, os.Stdout)
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs the whole benchmark at the -smoke sizing (div 16, n 32,
// one rep): all four workloads, both passes. It holds the benchmark to its
// own declaration and the replay to the CLI's bytes.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	res, err := run(root, config{seed: 1, trace: -1, out: out, smoke: true})
	if err != nil {
		t.Fatal(err)
	}

	// Every declared name is emitted, with its unit, and nothing else; the
	// same holds for the file the run wrote.
	for _, r := range []*results{res, new(results)} {
		if r != res {
			if err := readJSON(filepath.Join(out, "results.json"), r); err != nil {
				t.Fatal(err)
			}
		}
		if problems := check(&spec, r); len(problems) > 0 {
			t.Errorf("results do not match BENCHMARK.json:\n  %s", strings.Join(problems, "\n  "))
		}
	}
	for _, w := range workloads(true) {
		if !slices.Contains(spec.Workloads, workloadSpec{w.Name, w.Why}) {
			t.Errorf("workload %s: name or why differs from BENCHMARK.json", w.Name)
		}
	}

	for _, wr := range res.Workloads {
		if wr.OpsFailed != 0 || wr.OpsAttempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", wr.Name, wr.OpsFailed, wr.OpsAttempted, wr.Failures)
		}
		if c := wr.PerLayer["trace.coverage_frac"].Value; c < 0.5 || c > 1 {
			t.Errorf("%s: trace.coverage_frac = %v", wr.Name, c)
		}
		// Every timed rep carries the calibration it is normalised by.
		for _, m := range wr.Reps {
			if !(m.Calib > 0) {
				t.Errorf("%s: rep without a calibration time: %+v", wr.Name, m)
			}
		}
		if got, want := wr.PerLayer["backproject.updates"].Value, float64(wr.Dims.Updates); got != want {
			t.Errorf("%s: ledger counted %v updates, the problem has %v", wr.Name, got, want)
		}

		// Span self-times tile the replay: on every track they add up to
		// the track's root, to the nanosecond.
		var spans []span
		if err := readJSON(filepath.Join(out, "trace-"+wr.Name+".json"), &spans); err != nil {
			t.Fatal(err)
		}
		self := selfTimes(spans)
		sum := map[int]int64{}
		for _, s := range spans {
			if s.Workload != wr.Name || s.End < s.Start {
				t.Errorf("%s: malformed span %+v", wr.Name, s)
			}
			sum[s.Rank] += self[s.ID]
		}
		for _, s := range spans {
			if s.Name != spanReplay && s.Name != spanRank {
				continue
			}
			want := s.End - s.Start
			if s.Name == spanReplay {
				// The launching track delegates the ranks' wall time to them.
				for _, k := range spans {
					if k.Name == spanWorld {
						want -= (k.End - k.Start) - self[k.ID]
					}
				}
			}
			if sum[s.Rank] != want {
				t.Errorf("%s: self times on track %d sum to %d ns, its root spans %d ns", wr.Name, s.Rank, sum[s.Rank], want)
			}
		}
	}
	if a, b := res.workload("ranks-inproc"), res.workload("ranks-world"); a.SHA256 != b.SHA256 {
		t.Errorf("ranks-world volume %.12s differs from ranks-inproc %.12s", b.SHA256, a.SHA256)
	}
}

// TestCorruptOutputFailsRep flips one byte of a finished volume: the rep
// must count as failed and stay out of the medians, and the replay and the
// real driver must reproduce the uncorrupted bytes.
func TestCorruptOutputFailsRep(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, _, err := buildCLI(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads(true)[2] // ranks-inproc: SlabWriter and journal
	d, err := w.dims()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := startLauncher()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.close()
	r := &wlRun{w: w, seed: 1, cli: cli, bin: bin, f: filesIn(dir), dims: d}
	if r.ref, err = w.setup(r.f, r.seed); err != nil {
		t.Fatal(err)
	}
	if err := r.warmUp(); err != nil {
		t.Fatal(err)
	}

	r.timedRep()
	if r.attempted != 1 || r.failed != 0 || len(r.reps) != 1 {
		t.Fatalf("clean rep: attempted %d failed %d kept %d: %v", r.attempted, r.failed, len(r.reps), r.failures)
	}
	m, err := r.invoke(oneCPU, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(r.f.out)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(r.f.out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r.record(m, r.verify())
	if r.attempted != 2 || r.failed != 1 || len(r.reps) != 1 {
		t.Fatalf("corrupted rep: attempted %d failed %d kept %d", r.attempted, r.failed, len(r.reps))
	}

	rp, err := r.replay(filepath.Join(dir, "replay.fbk"), filepath.Join(dir, "replay.journal"))
	if err != nil {
		t.Fatal(err)
	}
	_, driverSHA, err := r.driver(filepath.Join(dir, "driver.fbk"), filepath.Join(dir, "driver.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if rp.sha != driverSHA || rp.sha != r.sha {
		t.Fatalf("replay %.12s, driver %.12s, CLI %.12s: not one volume", rp.sha, driverSHA, r.sha)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
	// statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 4, 7, 11, 16, 22}, 2, 16},
		{[]float64{3, 1, 2, 10}, 1.25, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts pins the rule of -compare: beyond the bound is a
// regression, a spread wider than the bound is unresolved, not unchanged.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}},
	}
	mk := func(samples ...float64) *results {
		return &results{Workloads: []workloadResult{{Name: "w",
			EndToEnd: map[string]metric{"wall_s": sampled(samples, "s")}}}}
	}
	for _, c := range []struct {
		base, head *results
		regressed  int
		verdict    string
	}{
		{mk(1, 1.01, 1.02), mk(1.01, 1.02, 1.03), 0, "unchanged"},
		{mk(1, 1.01, 1.02), mk(1.2, 1.21, 1.22), 1, "REGRESSED"},
		{mk(1, 1.01, 1.02), mk(0.8, 0.81, 0.82), 0, "improved"},
		{mk(0.8, 1, 1.3), mk(0.85, 1.02, 1.25), 0, "unresolved"},
	} {
		var sb strings.Builder
		if n := compare(&sb, spec, c.base, c.head); n != c.regressed || !strings.Contains(sb.String(), c.verdict) {
			t.Errorf("compare: %d regressed, want %d with verdict %s:\n%s", n, c.regressed, c.verdict, sb.String())
		}
	}
}
