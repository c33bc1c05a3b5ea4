// Command fdkrecon reconstructs a cone-beam CT volume with the streaming
// FDK pipeline. Input is either a projection container written by
// phantomgen/storage.WriteStack or a synthetic dataset generated on the
// fly:
//
//	fdkrecon -dataset tomo_00030 -div 8 -n 64 -o vol.fbk -slice slice.pgm
//	fdkrecon -in projections.fbp -dataset tomo_00030 -div 8 -n 64 -o vol.fbk
//
// Every FDK run is one supervised world of -groups × -ranks ranks (one by
// default): the grouped decomposition with the segmented reduction,
// in-process. Adding -world N spreads the same world over N OS processes
// wired through loopback sockets (see world.go), and -journal makes any
// world resumable:
//
//	fdkrecon -div 16 -n 32 -groups 2 -ranks 2 -world 3 -journal vol.journal -o vol.fbk
//
// -zlo/-znz restrict any of these runs to a window of slices, the plan's
// output; -o then holds only the window, its first slice in the header:
//
//	fdkrecon -div 16 -n 32 -zlo 20 -znz 8 -groups 2 -ranks 2 -o roi.fbk
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"distfdk/internal/core"
	"distfdk/internal/dataset"
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
		dsName    = flag.String("dataset", "tomo_00030", "dataset geometry (see DESIGN.md registry)")
		div       = flag.Int("div", 8, "detector/angle scale divisor for the synthetic twin")
		outN      = flag.Int("n", 64, "output volume size n³")
		inPath    = flag.String("in", "", "projection container (.fbp); empty synthesises the dataset's phantom")
		outPath   = flag.String("o", "volume.fbk", "output volume file")
		slice     = flag.String("slice", "", "optional central-slice PGM path")
		window    = flag.String("window", "ram-lak", "ramp window: ram-lak, shepp-logan, cosine, hamming, hann")
		groups    = flag.Int("groups", 1, "Ng rank groups")
		ranks     = flag.Int("ranks", 1, "Nr ranks per group")
		batches   = flag.Int("batches", core.DefaultBatchCount, "Nc slab batches")
		memMB     = flag.Int64("devmem", 0, "device memory budget in MiB (0 = unlimited)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "CPU parallelism, shared out between the ranks (at least 1 each)")
		timeline  = flag.Bool("timeline", false, "print rank 0's pipeline timeline")
		zlo       = flag.Int("zlo", -1, "first slice of the plan's Z window (ROI), in every FDK mode; -1 = full volume")
		znz       = flag.Int("znz", 0, "slice count of the Z window (with -zlo)")
		stats     = flag.Bool("stats", false, "print volume statistics")
		algo      = flag.String("algo", "fdk", "reconstruction algorithm: fdk, sirt, ossart, mlem, osem")
		iters     = flag.Int("iters", 10, "iterations for the iterative algorithms")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) of the run")
		metrics   = flag.String("metrics-json", "", "write the run's metrics JSON artifact")
		journal   = flag.String("journal", "", "checkpoint journal path: durable slab output with crash resume and supervised shrink-and-resume through rank loss; without it the first lost rank fails the run")
		restarts  = flag.Int("max-restarts", core.DefaultMaxRestarts, "restart budget of the supervised run, 0 = one attempt (needs -journal)")
		backoff   = flag.Duration("restart-backoff", core.DefaultRestartBackoff, "initial relaunch backoff, doubled per restart (needs -journal)")
		deadline  = flag.Duration("deadline", 0, "collective deadline: a lost peer surfaces as a typed error within this bound (0 waits for world teardown)")
		kills     = flag.String("kill", "", "chaos: comma-separated rank@batch kill schedule, e.g. 1@1,2@0 (recovery drill with -journal)")
		worldN    = flag.Int("world", 0, "spread the run's ranks over this many OS processes wired through loopback sockets (this process becomes the coordinator and spawns the workers)")
		severSpec = flag.String("sever", "", "chaos: comma-separated rank@nth wire severs, e.g. 1@2 cuts the connection carrying rank 1's 2nd outgoing frame (-world mode; the link must reconnect and replay)")
		workerFl  = flag.Bool("worker", false, "internal: run as a spawned worker process of a -world coordinator")
		procFl    = flag.Int("proc", 0, "internal: this worker's process id (with -worker)")
		procsFl   = flag.Int("procs", 0, "internal: total process count (with -worker)")
		connectFl = flag.String("connect", "", "internal: the coordinator's socket address (with -worker)")
	)
	flag.Parse()

	nf := netFlags{world: *worldN, worker: *workerFl, proc: *procFl,
		procs: *procsFl, connect: *connectFl}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := errors.Join(nf.validate(), refuseUnread(*algo, *zlo, set),
		validateRunFlags(*batches, *memMB, *workers, *restarts, *backoff, *deadline)); err != nil {
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
		out := volume.Header{NX: sys.NX, NY: sys.NY, NZ: sys.NZ}
		streamVolume(*outPath, out, nil, "", func(w core.SlabSink) error {
			vol, err := runIterative(*algo, sys, source, *iters, *workers)
			if err != nil {
				return err
			}
			return w.WriteSlab(vol)
		})
		finish(out, *outPath, *slice, *stats)
		return
	}

	// -zlo selects the plan's window: the slices [zlo, zlo+znz).
	z0, nz := 0, sys.NZ
	if *zlo >= 0 {
		z0, nz = *zlo, *znz
	}
	plan, err := core.NewWindowPlan(sys, *groups, *ranks, *batches, z0, nz)
	if err != nil {
		log.Fatal(err)
	}
	if fill := filledProcs(plan.NGroups, plan.NRanksPerGroup); nf.world > fill {
		fmt.Printf("-world %d is clamped to %d: the %d×%d ranks fill no more processes (group leaders share the coordinator)\n",
			nf.world, fill, plan.NGroups, plan.NRanksPerGroup)
		nf.world = fill
	}
	if *severSpec != "" && !nf.active() {
		log.Fatal("-sever injects wire faults; it needs -world/-worker (the in-process world has no wire)")
	}
	// Telemetry is collected whenever any consumer of it was requested;
	// otherwise every instrumented path stays at a single pointer check.
	var run *telemetry.Run
	if *traceOut != "" || *metrics != "" || *timeline {
		run = telemetry.NewRun(plan.Ranks())
	}

	inj, err := buildChaosInjector(*kills, *severSpec)
	if err != nil {
		log.Fatal(err)
	}
	// Every FDK run is one world, of one rank or of many; -workers is
	// shared out between its ranks (the bytes do not depend on the width).
	copts := core.ClusterOptions{
		Plan: plan, Source: source, Window: win,
		DeviceMemBytes: *memMB << 20, WorkersPerRank: max(1, *workers/plan.Ranks()),
		FaultInjector: inj, Telemetry: run, CollectiveDeadline: *deadline,
	}

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
		if *zlo >= 0 {
			// Formation checks the rank assignment only: a worker must
			// be told the window, or it runs another one.
			forward = append(forward, "-zlo", strconv.Itoa(*zlo), "-znz", strconv.Itoa(*znz))
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
	// -journal makes the run durable and restartable: the journal is
	// reopened every attempt, and the budget is -max-restarts. Without
	// it the budget is 0, and the first lost rank fails the run.
	sup := core.SuperviseOptions{Cluster: copts, RestartBackoff: *backoff, Follower: nf.worker}
	if *journal != "" {
		sup.MaxRestarts = *restarts
		sup.OpenCheckpoint = func(fp string) (core.CheckpointLog, error) {
			j, err := storage.OpenJournal(*journal, fp)
			if err != nil {
				return nil, err
			}
			j.SetTelemetry(run.Shared())
			return j, nil
		}
	}
	if nf.worker {
		// Group leaders live on the coordinator, so no slab reaches a
		// worker's sink.
		rep, err := superviseWorld(sup, core.DiscardSink{}, sw, *traceOut, *metrics)
		if err != nil {
			log.Fatalf("worker: %v", err)
		}
		sw.report(rep.Final.TotalReduceBytes())
		sw.close()
		return
	}
	var rep *core.SuperviseReport
	streamVolume(*outPath, plan.Output(), run, *journal, func(w core.SlabSink) (err error) {
		rep, err = superviseWorld(sup, w, sw, *traceOut, *metrics)
		return err
	})
	// The reduce traffic is every rank's, the workers' ranks included.
	reduced := rep.Final.TotalReduceBytes()
	if sw != nil {
		// Workers follow the same decisions, supervision included; all
		// of them must exit cleanly.
		reduced += sw.finish(len(splitSpec(*severSpec)))
	}
	printRun(rep, reduced)
	if *timeline {
		// Rank 0 leads group 0, so it runs every stage, reduce included.
		fmt.Print(telemetry.RenderGantt(run.Rank(0).Spans(), []string{"load", "filter", "backproject", "reduce", "store"}, 100))
	}
	finish(plan.Output(), *outPath, *slice, *stats)
	if ds, err := dataset.ByName(*dsName); err == nil {
		fmt.Printf("geometry: %s (magnification %.2f)\n", ds.Description, ds.Magnification())
	}
}

// finish is every mode's tail: -o is written, and the post-run views load it
// back, so voxels are only read again when -slice or -stats needs them.
func finish(out volume.Header, path, slice string, stats bool) {
	fmt.Printf("volume %v written to %s\n", out, path)
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

// streamVolume runs one reconstruction of the volume out into a SlabWriter
// on path and promotes the volume when the run succeeds. Without a journal,
// a failed run removes the partial file, so whatever path held before is
// left as it was. With one, the writer resumes the partial file a failed run
// kept — or, finding none, starts afresh and removes the journal, whose
// slabs no longer exist — and a failed run keeps both for the rerun to
// resume; success removes the journal.
func streamVolume(path string, out volume.Header, run *telemetry.Run, journal string, reconstruct func(core.SlabSink) error) {
	w, err := openSlabWriter(path, out, journal)
	if err != nil {
		log.Fatal(err)
	}
	w.SetTelemetry(run.Shared())
	if err = reconstruct(w); err == nil {
		err = w.Close()
	}
	switch {
	case err == nil:
		if journal != "" {
			os.Remove(journal)
		}
	case journal != "":
		w.ClosePartial()
		log.Fatalf("%v\npartial volume and journal kept; rerun the same command to resume", err)
	default:
		w.Abort()
		log.Fatal(err)
	}
}

// openSlabWriter is streamVolume's writer: a resumed partial file when a
// journaled run left one, else a fresh one.
func openSlabWriter(path string, out volume.Header, journal string) (*storage.SlabWriter, error) {
	if journal == "" {
		return storage.CreateSlabWriter(path, out)
	}
	if _, err := os.Stat(path + storage.PartialSuffix); err == nil {
		fmt.Printf("resuming %s%s: journaled slabs will be skipped\n", path, storage.PartialSuffix)
		return storage.ResumeSlabWriter(path, out)
	}
	if err := os.Remove(journal); err == nil {
		log.Printf("removed stale journal %s (no partial volume to resume)", journal)
	}
	return storage.CreateSlabWriter(path, out)
}

// superviseWorld is the FDK driver, the coordinator's and a worker's
// alike: one core.Supervise of the world into out. Telemetry
// artifacts are written even when the run fails — a partial trace of the
// attempts is exactly what diagnoses the failure — and a failing
// coordinator kills its workers.
func superviseWorld(sup core.SuperviseOptions, out core.SlabSink, sw *socketWorld, traceOut, metrics string) (*core.SuperviseReport, error) {
	sup.Cluster.Output = out
	rep, err := core.Supervise(sup)
	if rep != nil && rep.Final != nil {
		writeTelemetry(traceOut, metrics, rep.Final.Telemetry)
	}
	if err != nil && sw != nil {
		sw.kill()
	}
	return rep, err
}

// printRun is the coordinator's account of a finished run; reduced is the
// reduce traffic of every rank, the ones its workers host included.
func printRun(rep *core.SuperviseReport, reduced int64) {
	p := rep.Plan
	fmt.Printf("reconstructed on %d ranks (%d groups × %d) in %v; reduce traffic %.1f MiB, kernel %s\n",
		p.Ranks(), p.NGroups, p.NRanksPerGroup, rep.Final.Elapsed.Round(1e6),
		float64(reduced)/(1<<20), rep.Final.Arithmetic())
	fmt.Print(rep.String(), rep.Final.String())
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
