// Command bench is the repository's benchmark: it times four fdkrecon
// workloads end to end by running the binary, and replays each workload's
// batch schedule in-process with a span around every call into a layer for
// the per-layer numbers. BENCHMARK.json at the module root declares the
// workloads, the metrics and their regression bounds; README.md here says
// what each is for.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench --workload single-kernel --seed 3 --seconds 26 --trace 0
//	go run ./bench -check bench/out/results.json
//	go run ./bench -compare base.json head.json
//
// With one workload selected the last line of standard output is the JSON
// object the benchmark driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string  // "" selects all four
	seed     int64   // noise realisation of the single-* inputs
	seconds  float64 // timed window per workload
	trace    int     // 0 end-to-end pass only, 1 traced pass only, -1 both
	out      string
	smoke    bool

	sizing
}

// sizing is what -smoke shrinks besides the problem sizes.
type sizing struct {
	minReps     int     // timed reps per workload, whatever the window
	setupRounds int     // set-ups per workload at least
	setupFill   float64 // cheap set-ups repeat until this many seconds are spent
	pairs       int     // plain/traced CLI pairs behind telemetry.overhead_frac
	pings       int     // round trips behind nettrans.rtt_us
	bulkSends   int     // 8 MiB messages behind nettrans.p2p_gbs
	fmaIters    int64   // iterations of one pass of the compute probe
	triadCap    int64   // upper limit of the bandwidth probe's three arrays, bytes
}

func (c *config) derive() {
	c.sizing = sizing{minReps: 5, setupRounds: 8, setupFill: 3, pairs: 3,
		pings: 1000, bulkSends: 16, fmaIters: 1 << 26, triadCap: 1 << 30}
	if c.smoke {
		c.seconds = 0
		c.sizing = sizing{minReps: 1, setupRounds: 1, pairs: 1,
			pings: 100, bulkSends: 2, fmaIters: 1 << 20, triadCap: 12 << 20}
	}
}

func main() {
	if os.Getenv(launcherEnv) != "" {
		serveLauncher(os.Stdin, os.Stdout)
		return
	}
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the Poisson-noise realisation of the single-* inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "timed window per workload, in seconds")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end pass only; 1: traced pass only; default both")
	flag.StringVar(&cfg.out, "out", "", "output directory (default bench/out in the module)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "seconds-scale sizing: div 16, n 32, one rep")
	checkPath := flag.String("check", "", "validate a results file against BENCHMARK.json and exit")
	doCompare := flag.Bool("compare", false, "compare two results files: -compare base.json head.json")
	flag.Parse()

	if err := dispatch(cfg, *checkPath, *doCompare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(cfg config, checkPath string, doCompare bool, args []string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if checkPath != "" || doCompare {
		var spec benchmarkSpec
		if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
			return err
		}
		if checkPath != "" {
			var res results
			if err := readJSON(checkPath, &res); err != nil {
				return err
			}
			if problems := check(&spec, &res); len(problems) > 0 {
				return fmt.Errorf("%s does not match BENCHMARK.json:\n  %s", checkPath, strings.Join(problems, "\n  "))
			}
			fmt.Printf("%s: every declared workload and metric present, nothing undeclared\n", checkPath)
			return nil
		}
		if len(args) != 2 {
			return errors.New("-compare needs two results files: base.json head.json")
		}
		var base, head results
		if err := readJSON(args[0], &base); err != nil {
			return err
		}
		if err := readJSON(args[1], &head); err != nil {
			return err
		}
		if n := compare(os.Stdout, &spec, &base, &head); n > 0 {
			return fmt.Errorf("%d end-to-end metrics regressed beyond their bound", n)
		}
		return nil
	}

	if cfg.out == "" {
		cfg.out = filepath.Join(root, "bench", "out")
	}
	res, err := run(root, cfg)
	if err != nil {
		return err
	}
	printResults(os.Stdout, res)
	if cfg.workload == "" {
		return nil
	}
	line, err := json.Marshal(driverLine(&res.Workloads[0]))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// moduleRoot walks up from the working directory to the distfdk module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module distfdk\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the distfdk module")
		}
		dir = parent
	}
}

// run executes the selected workloads and writes results.json and the
// traces into cfg.out.
func run(root string, cfg config) (*results, error) {
	cfg.derive()
	var selected []workload
	for _, w := range workloads(cfg.smoke) {
		if cfg.workload == "" || cfg.workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	bin, buildS, err := buildCLI(root, cfg.out)
	if err != nil {
		return nil, err
	}
	cli, err := startLauncher()
	if err != nil {
		return nil, err
	}
	defer cli.close()

	runs := make([]*wlRun, len(selected))
	for i, w := range selected {
		dir := filepath.Join(cfg.out, w.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		d, err := w.dims()
		if err != nil {
			return nil, err
		}
		r := &wlRun{w: w, seed: cfg.seed, cli: cli, bin: bin, f: filesIn(dir), dims: d}
		// Set-up is repeated because a later change may move work into it;
		// nothing is shared between workloads. Like the timed reps, each
		// round has one CPU, and the rounds take the CPUs in turn.
		all, ok := threadCPUs()
		cpus := all.list()
		for k, start := 0, time.Now(); k < cfg.setupRounds || (k < 30 && time.Since(start).Seconds() < cfg.setupFill); k++ {
			if ok {
				confineProcess(only(cpus[k%len(cpus)]))
			}
			before := calibrate()
			t0 := time.Now()
			if r.ref, err = w.setup(r.f, cfg.seed); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
			}
			s := time.Since(t0).Seconds()
			r.setupS = append(r.setupS, normalised(s, min(before, calibrate())))
		}
		if ok {
			confineProcess(all)
		}
		if err := r.warmUp(); err != nil {
			return nil, err
		}
		runs[i] = r
	}

	res := &results{Provenance: newProvenance(root, cfg)}
	for _, r := range runs {
		res.Workloads = append(res.Workloads, workloadResult{
			Name: r.w.Name, Why: r.w.Why, Seed: r.seed, Dims: r.dims, SHA256: r.sha,
			Command: append([]string{"fdkrecon"}, r.w.args(filesIn("."), false)...),
		})
	}

	if cfg.trace != 1 {
		// Closed loop, one client. Reps go round-robin over the workloads
		// so a burst from a noisy neighbour spreads over every row.
		budget := time.Duration(cfg.seconds * float64(len(runs)) * float64(time.Second))
		start := time.Now()
		for rep := 0; rep < cfg.minReps || time.Since(start) < budget; rep++ {
			for _, r := range runs {
				r.timedRep()
			}
		}
		for i, r := range runs {
			if len(r.reps) == 0 {
				return nil, fmt.Errorf("%s: every rep failed: %s", r.w.Name, strings.Join(r.failures, "; "))
			}
			res.Workloads[i].EndToEnd, res.Workloads[i].Reps = r.endToEnd(), r.reps
		}
	}
	if cfg.trace != 0 {
		for i, r := range runs {
			layers, spans, err := r.perLayer(cfg, buildS)
			if err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", r.w.Name, err)
			}
			res.Workloads[i].PerLayer = layers
			if err := writeTrace(filepath.Join(cfg.out, "trace-"+r.w.Name+".json"), spans); err != nil {
				return nil, err
			}
		}
	}
	for i, r := range runs {
		wr := &res.Workloads[i]
		wr.OpsAttempted, wr.OpsFailed, wr.Failures = r.attempted, r.failed, r.failures
	}
	return res, writeJSON(filepath.Join(cfg.out, "results.json"), res)
}

// endToEnd reports what a user of fdkrecon sees. The timings are
// normalised to the speed of the CPU at the moment (calib.go) and reported
// as the first quartile over the reps, not the median: what is left of the
// host's interference after normalising only ever adds time, so the lower
// quartile repeats between invocations where the median does not (README,
// Protocol).
func (r *wlRun) endToEnd() map[string]metric {
	var wall, cpu, rss []float64
	for _, m := range r.reps {
		wall = append(wall, normalised(m.Wall, m.Calib))
		cpu = append(cpu, normalised(m.CPU, m.Calib))
		rss = append(rss, m.RSSMiB)
	}
	return map[string]metric{
		"wall_s":       lowerQuartile(wall, "s"),
		"cpu_s":        lowerQuartile(cpu, "s"),
		"peak_rss_mib": sampled(rss, "MiB"),
		"rmse":         {Value: r.rmse, Unit: "density"},
		"setup_s":      lowerQuartile(r.setupS, "s"),
	}
}

// normalised converts seconds measured on a CPU whose calibration loop took
// calib seconds into seconds on the reference core.
func normalised(seconds, calib float64) float64 { return seconds * calibRefS / calib }

// driverLine is the object the benchmark driver reads from the last line
// of standard output.
func driverLine(wr *workloadResult) map[string]any {
	metrics := map[string]metric{}
	for _, set := range []map[string]metric{wr.EndToEnd, wr.PerLayer} {
		for name, m := range set {
			metrics[name] = metric{Value: m.Value, Unit: m.Unit} // without the samples
		}
	}
	return map[string]any{
		"correct":   wr.OpsFailed == 0,
		"attempted": wr.OpsAttempted,
		"failed":    wr.OpsFailed,
		"metrics":   metrics,
	}
}

// printResults lists every metric by name with its unit; sampled metrics
// show n, min, quartiles, median and max beside the reported value.
func printResults(out *os.File, res *results) {
	p := res.Provenance
	fmt.Fprintf(out, "commit %s  %s  %s  nproc %d  GOMAXPROCS %d  avx2 %v  seed %d\n",
		p.Commit, p.GoVersion, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.AVX2, p.Seed)
	for _, wr := range res.Workloads {
		d := wr.Dims
		fmt.Fprintf(out, "\n== %s: %s\n   %dx%dx%d in (%.1f MiB), %d^3 out (%.1f MiB), %.3g updates; ops_attempted %d, ops_failed %d\n",
			wr.Name, strings.Join(wr.Command, " "), d.InNU, d.InNV, d.InNP, float64(d.InBytes)/(1<<20),
			d.OutN, float64(d.OutBytes)/(1<<20), float64(d.Updates), wr.OpsAttempted, wr.OpsFailed)
		for _, f := range wr.Failures {
			fmt.Fprintf(out, "   FAILED: %s\n", f)
		}
		if len(wr.Reps) > 0 {
			fast, slow := wr.Reps[0], wr.Reps[0]
			for _, m := range wr.Reps {
				if m.Wall < fast.Wall {
					fast = m
				}
				if m.Wall > slow.Wall {
					slow = m
				}
			}
			fmt.Fprintf(out, "   as measured: wall %.4g–%.4g s with the calibration loop at %.3g and %.3g ms; the timings below are at %.3g ms\n",
				fast.Wall, slow.Wall, 1e3*fast.Calib, 1e3*slow.Calib, 1e3*calibRefS)
		}
		for _, set := range []map[string]metric{wr.EndToEnd, wr.PerLayer} {
			names := make([]string, 0, len(set))
			for name := range set {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := set[name]
				fmt.Fprintf(out, "   %-34s %14.6g %-8s", name, m.Value, m.Unit)
				if n := len(m.Samples); n > 1 {
					s := append([]float64(nil), m.Samples...)
					sort.Float64s(s)
					q1, q3 := quartiles(s)
					fmt.Fprintf(out, " n=%d min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", n, s[0], q1, median(s), q3, s[n-1])
				}
				fmt.Fprintln(out)
			}
		}
	}
}
