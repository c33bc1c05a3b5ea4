// Command fdkrecon reconstructs a cone-beam CT volume with the streaming
// FDK pipeline. Input is either a projection container written by
// phantomgen/storage.WriteStack or a synthetic dataset generated on the
// fly:
//
//	fdkrecon -dataset tomo_00030 -div 8 -n 64 -o vol.fbk -slice slice.pgm
//	fdkrecon -in projections.fbp -dataset tomo_00030 -div 8 -n 64 -o vol.fbk
//
// Multi-rank mode (-groups/-ranks) runs the grouped decomposition with the
// segmented reduction in-process. Adding -world N spreads the same world
// over N OS processes wired through loopback sockets (see world.go):
//
//	fdkrecon -div 16 -n 32 -groups 2 -ranks 2 -world 4 -journal vol.journal -o vol.fbk
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/experiments"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/iterative"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdkrecon: ")

	var (
		dsName     = flag.String("dataset", "tomo_00030", "dataset geometry (see DESIGN.md registry)")
		div        = flag.Int("div", 8, "detector/angle scale divisor for the synthetic twin")
		outN       = flag.Int("n", 64, "output volume size n³")
		inPath     = flag.String("in", "", "projection container (.fbp); empty synthesises the dataset's phantom")
		outPath    = flag.String("o", "volume.fbk", "output volume file")
		slice      = flag.String("slice", "", "optional central-slice PGM path")
		window     = flag.String("window", "ram-lak", "ramp window: ram-lak, shepp-logan, cosine, hamming, hann")
		groups     = flag.Int("groups", 1, "Ng rank groups")
		ranks      = flag.Int("ranks", 1, "Nr ranks per group")
		batches    = flag.Int("batches", core.DefaultBatchCount, "Nc slab batches")
		memMB      = flag.Int64("devmem", 0, "device memory budget in MiB (0 = unlimited)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "CPU parallelism")
		timeline   = flag.Bool("timeline", false, "print the pipeline timeline (single-rank mode)")
		zlo        = flag.Int("zlo", -1, "first slice of a Z-window (ROI) reconstruction; -1 = full volume")
		znz        = flag.Int("znz", 0, "slice count of the Z-window (with -zlo)")
		stats      = flag.Bool("stats", false, "print volume statistics")
		algo       = flag.String("algo", "fdk", "reconstruction algorithm: fdk, sirt, ossart, mlem, osem")
		iters      = flag.Int("iters", 10, "iterations for the iterative algorithms")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) of the run")
		metrics    = flag.String("metrics-json", "", "write the run's metrics JSON artifact")
		pprof      = flag.String("pprof", "", "serve net/http/pprof, Prometheus /metrics and /statusz on this address (e.g. localhost:6060)")
		statusPoll = flag.Duration("status-poll", 0, "with -pprof: poll the live /metrics and /statusz endpoints at this interval during the run and fail unless they validate (smoke test)")
		journal    = flag.String("journal", "", "checkpoint journal path (multi-rank mode): durable slab output with crash resume and supervised shrink-and-resume through rank loss")
		restarts   = flag.Int("max-restarts", core.DefaultMaxRestarts, "restart budget of the supervised run (with -journal)")
		backoff    = flag.Duration("restart-backoff", core.DefaultRestartBackoff, "initial relaunch backoff, doubled per restart (with -journal)")
		deadline   = flag.Duration("deadline", 0, "collective deadline: a lost peer surfaces as a typed error within this bound (0 waits for world teardown)")
		kills      = flag.String("kill", "", "chaos: comma-separated rank@batch kill schedule, e.g. 1@1,2@0 (recovery drill with -journal)")
		worldN     = flag.Int("world", 0, "spread the multi-rank run over this many OS processes wired through loopback sockets (this process becomes the coordinator and spawns the workers)")
		transport  = flag.String("transport", "tcp", "socket transport of -world mode: tcp or unix")
		severSpec  = flag.String("sever", "", "chaos: comma-separated rank@nth wire severs, e.g. 1@2 cuts the connection carrying rank 1's 2nd outgoing frame (-world mode; the link must reconnect and replay)")
		workerFl   = flag.Bool("worker", false, "internal: run as a spawned worker process of a -world coordinator")
		procFl     = flag.Int("proc", 0, "internal: this worker's process id (with -worker)")
		procsFl    = flag.Int("procs", 0, "internal: total process count (with -worker)")
		connectFl  = flag.String("connect", "", "internal: the coordinator's socket address (with -worker)")
	)
	flag.Parse()

	nf := netFlags{world: *worldN, worker: *workerFl, proc: *procFl,
		procs: *procsFl, transport: *transport, connect: *connectFl}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := errors.Join(nf.validate(), refuseUnread(*algo, *zlo, *groups**ranks, set),
		validateRunFlags(*restarts, *backoff, *deadline)); err != nil {
		log.Fatal(err)
	}

	win, err := filter.ParseWindow(*window)
	if err != nil {
		log.Fatal(err)
	}

	sys, source, err := resolveInput(*inPath, *dsName, *div, *outN, *workers, experiments.BuildScenario)
	if err != nil {
		log.Fatal(err)
	}
	if c, ok := source.(io.Closer); ok {
		defer c.Close()
	}

	if *algo != "fdk" {
		vol, err := runIterative(*algo, sys, source, *iters, *workers)
		if err == nil {
			err = vol.SaveRaw(*outPath)
		}
		if err != nil {
			log.Fatal(err)
		}
		finish(vol.ShapeString(), *outPath, *slice, *stats)
		return
	}

	if *zlo >= 0 {
		vol, rep, err := core.ReconstructZWindow(core.ZWindowOptions{
			Sys: sys, Source: source,
			Device: device.New("roi", *memMB<<20, *workers),
			Window: win, Z0: *zlo, NZ: *znz,
		})
		if err == nil {
			err = vol.SaveRaw(*outPath)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ROI slices [%d,%d) reconstructed in %d slabs (H2D %.1f MiB, kernel %s)\n",
			*zlo, *zlo+*znz, rep.Slabs, float64(rep.Ledger.H2DBytes)/(1<<20), rep.Ledger.Arithmetic())
		finish(vol.ShapeString(), *outPath, *slice, *stats)
		return
	}

	plan, err := core.NewPlan(sys, *groups, *ranks, *batches)
	if err != nil {
		log.Fatal(err)
	}
	if *severSpec != "" && !nf.active() {
		log.Fatal("-sever injects wire faults; it needs -world/-worker (the in-process world has no wire)")
	}
	// Telemetry is collected whenever any consumer of it was requested;
	// otherwise every instrumented path stays at a single pointer check.
	var run *telemetry.Run
	if *traceOut != "" || *metrics != "" || *pprof != "" {
		run = telemetry.NewRun(plan.Ranks())
	}
	// finishPoll stops the -status-poll loop (if any) and fails the run
	// unless the live endpoints validated while work was in flight.
	finishPoll := func() {}
	if *pprof != "" {
		srv, err := servePprof(*pprof, run)
		if err != nil {
			// -pprof was explicitly requested; a busy port must fail fast,
			// not leave the run silently unobservable.
			log.Fatal(err)
		}
		defer srv.Close()
		finishPoll = startStatusPoll(srv.Addr(), *statusPoll)
	}

	if plan.Ranks() == 1 {
		reg := run.Rank(0)
		if reg == nil && *timeline {
			reg = telemetry.NewRegistry() // the timeline is drawn from its spans
		}
		var rep *core.ReconReport
		streamVolume(*outPath, sys, run, func(w core.SlabSink) (err error) {
			rep, err = core.ReconstructSingle(core.ReconOptions{
				Plan: plan, Source: source,
				Device: device.New("local", *memMB<<20, *workers),
				Window: win, Sink: w, Telemetry: reg,
			})
			return err
		})
		finishPoll()
		fmt.Printf("reconstructed %d slabs in %v (H2D %.1f MiB, D2H %.1f MiB, kernel %s)\n",
			rep.Slabs, rep.Elapsed.Round(1e6),
			float64(rep.Ledger.H2DBytes)/(1<<20), float64(rep.Ledger.D2HBytes)/(1<<20),
			rep.Ledger.Arithmetic())
		if *timeline {
			fmt.Print(telemetry.RenderGantt(reg.Spans(), []string{"load", "filter", "backproject", "store"}, 100))
		}
		writeTelemetry(*traceOut, *metrics, run.Snapshots())
	} else {
		copts := core.ClusterOptions{
			Plan: plan, Source: source, Window: win,
			DeviceMemBytes: *memMB << 20,
			Telemetry:      run, CollectiveDeadline: *deadline,
		}
		inj, err := buildChaosInjector(*kills, *severSpec)
		if err != nil {
			log.Fatal(err)
		}
		copts.FaultInjector = inj

		var sw *socketWorld
		if nf.active() {
			if copts.CollectiveDeadline == 0 {
				copts.CollectiveDeadline = defaultNetDeadline
			}
			// The reconstruction flags a worker must agree on, forwarded
			// verbatim; the resolved deadline keeps both sides' bounds equal.
			forward := []string{
				"-dataset", *dsName, "-div", strconv.Itoa(*div), "-n", strconv.Itoa(*outN),
				"-groups", strconv.Itoa(*groups), "-ranks", strconv.Itoa(*ranks),
				"-batches", strconv.Itoa(*batches),
				"-window", *window,
				"-devmem", strconv.FormatInt(*memMB, 10),
				"-workers", strconv.Itoa(*workers),
				"-deadline", copts.CollectiveDeadline.String(),
			}
			if *inPath != "" {
				// Workers read the same projections, whatever directory
				// they are started in.
				abs, err := filepath.Abs(*inPath)
				if err != nil {
					log.Fatal(err)
				}
				forward = append(forward, "-in", abs)
			}
			if *journal != "" {
				forward = append(forward, "-journal", *journal,
					"-max-restarts", strconv.Itoa(*restarts),
					"-restart-backoff", backoff.String())
			}
			if *kills != "" {
				forward = append(forward, "-kill", *kills)
			}
			if *severSpec != "" {
				forward = append(forward, "-sever", *severSpec)
			}
			sw, err = startSocketWorld(nf, inj, run, forward)
			if err != nil {
				log.Fatal(err)
			}
			copts.Launch = sw.node.Launcher(plan.NRanksPerGroup)
		}
		if nf.worker {
			runFollower(copts, *journal, restartBudget(*restarts), *backoff)
			sw.reportSevers()
			sw.close()
			return
		}

		if *journal != "" {
			runSupervised(copts, sys, run, supervisedConfig{
				journal:  *journal,
				outPath:  *outPath,
				restarts: restartBudget(*restarts),
				backoff:  *backoff,
				traceOut: *traceOut,
				metrics:  *metrics,
			})
		} else {
			streamVolume(*outPath, sys, run, func(w core.SlabSink) error {
				copts.Output = w
				rep, err := core.RunDistributed(copts)
				if rep != nil {
					// Artifacts are written even when the run failed: a partial
					// trace is exactly what diagnoses the failure.
					writeTelemetry(*traceOut, *metrics, rep.Telemetry)
				}
				if err != nil {
					if sw != nil {
						sw.kill()
					}
					return err
				}
				fmt.Printf("reconstructed on %d ranks (%d groups × %d) in %v; reduce traffic %.1f MiB, kernel %s\n",
					plan.Ranks(), *groups, *ranks, rep.Elapsed.Round(1e6),
					float64(rep.TotalReduceBytes())/(1<<20), rep.Arithmetic())
				fmt.Print(rep.String())
				return nil
			})
		}
		if sw != nil {
			// Workers follow the same decisions, supervision included; all
			// of them must exit cleanly.
			sw.finish(len(splitSpec(*severSpec)))
		}
		finishPoll()
	}

	finish(fmt.Sprintf("%dx%dx%d", sys.NX, sys.NY, sys.NZ), *outPath, *slice, *stats)
	if ds, err := dataset.ByName(*dsName); err == nil {
		fmt.Printf("geometry: %s (magnification %.2f)\n", ds.Description, ds.Magnification())
	}
}

// finish is every mode's tail: -o is written, and the post-run views load it
// back, so voxels are only read again when -slice or -stats needs them.
func finish(shape, path, slice string, stats bool) {
	fmt.Printf("volume %s written to %s\n", shape, path)
	if slice == "" && !stats {
		return
	}
	vol, err := volume.LoadRaw(path)
	if err != nil {
		log.Fatal(err)
	}
	if slice != "" {
		if err := vol.SavePGM(slice, vol.NZ/2, 0, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("central slice written to %s\n", slice)
	}
	if stats {
		printStats(vol.Summarize())
	}
}

// streamVolume runs one reconstruction into a SlabWriter on path and
// promotes the volume when the run succeeds. A failed run removes the
// partial file, so whatever path held before is left as it was.
func streamVolume(path string, sys *geometry.System, run *telemetry.Run, reconstruct func(core.SlabSink) error) {
	w, err := storage.NewSlabWriter(path, sys.NX, sys.NY, sys.NZ)
	if err != nil {
		log.Fatal(err)
	}
	w.SetTelemetry(run.Shared())
	if err = reconstruct(w); err == nil {
		err = w.Close()
	}
	if err != nil {
		w.Abort()
		log.Fatal(err)
	}
}

// resolveInput returns the run's geometry and projection source. With an
// input container the geometry comes from the dataset registry alone
// (experiments.ScaledSystem) and the projections from the file, whose
// dimensions must match; only
// without one is the dataset's phantom forward-projected, through
// synthesise (experiments.BuildScenario).
func resolveInput(inPath, dsName string, div, outN, workers int,
	synthesise func(name string, div, outN, workers int) (*experiments.Scenario, error)) (*geometry.System, projection.Source, error) {
	if inPath == "" {
		sc, err := synthesise(dsName, div, outN, workers)
		if err != nil {
			return nil, nil, err
		}
		return sc.Sys, sc.Source, nil
	}
	_, sys, err := experiments.ScaledSystem(dsName, div, outN)
	if err != nil {
		return nil, nil, err
	}
	src, err := storage.OpenStack(inPath)
	if err != nil {
		return nil, nil, err
	}
	if nu, np, nv := src.Dims(); nu != sys.NU || np != sys.NP || nv != sys.NV {
		src.Close()
		return nil, nil, fmt.Errorf("input %dx%dx%d does not match %s/%d geometry %dx%dx%d",
			nu, np, nv, dsName, div, sys.NU, sys.NP, sys.NV)
	}
	return sys, src, nil
}

// supervisedConfig carries the durable-mode knobs into runSupervised.
type supervisedConfig struct {
	journal  string
	outPath  string
	restarts int
	backoff  time.Duration
	traceOut string
	metrics  string
}

// runSupervised runs the distributed reconstruction in durable mode: slabs
// stream into outPath+".partial" through the crash-consistent SlabWriter,
// every stored slab is journaled, and core.Supervise replans and relaunches
// the world in-process through rank loss. A failed run keeps the partial
// volume and the journal so rerunning the same command resumes where it
// stopped; a successful one promotes the volume and removes the journal.
func runSupervised(copts core.ClusterOptions, sys *geometry.System, run *telemetry.Run, cfg supervisedConfig) {
	var w *storage.SlabWriter
	var err error
	if _, serr := os.Stat(cfg.outPath + storage.PartialSuffix); serr == nil {
		w, err = storage.ResumeSlabWriter(cfg.outPath, sys.NX, sys.NY, sys.NZ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resuming %s%s: journaled slabs will be skipped\n",
			cfg.outPath, storage.PartialSuffix)
	} else {
		// A journal with no partial volume describes slabs that no longer
		// exist on disk; a fresh run must not skip them.
		if rerr := os.Remove(cfg.journal); rerr == nil {
			log.Printf("removed stale journal %s (no partial volume to resume)", cfg.journal)
		}
		w, err = storage.NewSlabWriter(cfg.outPath, sys.NX, sys.NY, sys.NZ)
		if err != nil {
			log.Fatal(err)
		}
	}
	w.SetTelemetry(run.Shared())
	copts.Output = w

	sup, err := core.Supervise(core.SuperviseOptions{
		Cluster: copts,
		OpenCheckpoint: func(fp string) (core.CheckpointLog, error) {
			j, jerr := storage.OpenJournal(cfg.journal, fp)
			if jerr != nil {
				return nil, jerr
			}
			j.SetTelemetry(run.Shared())
			return j, nil
		},
		MaxRestarts:    cfg.restarts,
		RestartBackoff: cfg.backoff,
	})
	if sup != nil && sup.Final != nil {
		// Artifacts are written even when the run failed: a partial trace
		// of the recovery attempts is exactly what diagnoses the failure.
		writeTelemetry(cfg.traceOut, cfg.metrics, sup.Final.Telemetry)
	}
	if err != nil {
		w.ClosePartial()
		log.Fatalf("%v\npartial volume and journal kept; rerun the same command to resume", err)
	}
	fmt.Print(sup.String())
	fmt.Print(sup.Final.String())
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	os.Remove(cfg.journal)
}

// runIterative reconstructs with one of the iterative algorithms. The
// stack must be fully loadable (iterative methods need all angles every
// pass).
func runIterative(algo string, sys *geometry.System, source projection.Source, iters, workers int) (*volume.Volume, error) {
	_, np, nv := source.Dims()
	full, err := source.LoadRows(geometry.RowRange{Lo: 0, Hi: nv}, 0, np)
	if err != nil {
		return nil, err
	}
	opts := iterative.Options{Iterations: iters, NonNegative: true, Workers: workers,
		Callback: func(it int, rel float64) bool {
			fmt.Printf("  %s pass %2d: relative residual %.4f\n", algo, it, rel)
			return true
		}}
	if algo == "ossart" || algo == "osem" {
		opts.Subsets = 4
	}
	var res *iterative.Result
	switch algo {
	case "sirt", "ossart":
		res, err = iterative.Reconstruct(sys, full, opts)
	case "mlem", "osem":
		res, err = iterative.ReconstructMLEM(sys, full, opts)
	default:
		return nil, fmt.Errorf("unknown algorithm %q (fdk, sirt, ossart, mlem, osem)", algo)
	}
	if err != nil {
		return nil, err
	}
	return res.Volume, nil
}

var publishTelemetry sync.Once

// servePprof starts the live introspection endpoint: net/http/pprof on
// /debug/pprof, an expvar view of the telemetry snapshots on /debug/vars,
// Prometheus text exposition on /metrics and the distfdk-status/1 JSON on
// /statusz — all live while back-projection runs. The bind is synchronous,
// so a busy port surfaces as a typed *telemetry.ServeError to the caller
// instead of a log line from a background goroutine.
func servePprof(addr string, run *telemetry.Run) (*telemetry.StatusServer, error) {
	// expvar panics on duplicate names: publish once even when the caller
	// retries after a failed bind.
	publishTelemetry.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return run.Snapshots()
		}))
	})
	srv, err := telemetry.ListenStatus(addr, run)
	if err != nil {
		return nil, err
	}
	fmt.Printf("introspection endpoints on http://%s/{debug/pprof,metrics,statusz}\n", srv.Addr())
	return srv, nil
}

// startStatusPoll runs the -status-poll loop against the live endpoint and
// returns the closer that stops it and enforces the smoke contract: at
// least one poll validated, at least one observed the run in flight.
// A non-positive interval disables polling.
func startStatusPoll(addr string, every time.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	resCh := make(chan telemetry.PollResult, 1)
	go func() { resCh <- telemetry.PollStatus("http://"+addr, every, done) }()
	return func() {
		close(done)
		res := <-resCh
		if res.Valid == 0 || res.Active == 0 {
			log.Fatalf("-status-poll: %d polls, %d valid, %d active (last error: %v)",
				res.Polls, res.Valid, res.Active, res.LastErr)
		}
		fmt.Printf("status poll: %d/%d polls valid, %d observed in-flight work\n",
			res.Valid, res.Polls, res.Active)
	}
}

// writeTelemetry writes the requested trace/metrics artifacts from the
// run's snapshots; empty paths are skipped.
func writeTelemetry(tracePath, metricsPath string, snaps []telemetry.Snapshot) {
	write := func(path string, render func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := render(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry artifact written to %s\n", path)
	}
	write(tracePath, func(f *os.File) error { return telemetry.WriteChromeTrace(f, snaps) })
	write(metricsPath, func(f *os.File) error { return telemetry.WriteMetricsJSON(f, snaps) })
}

func printStats(s volume.Summary) {
	fmt.Printf("stats: min %.4f, max %.4f, mean %.4f, std %.4f", s.Min, s.Max, s.Mean, s.Std)
	if s.NaNOrInf > 0 {
		fmt.Printf(", NON-FINITE VOXELS: %d", s.NaNOrInf)
	}
	fmt.Println()
}
