package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/mpi"
	"distfdk/internal/pipeline"
)

// ExecBenchOptions configures the scale-out executor benchmark behind
// BENCH_exec.json: elastic pipeline throughput and pooled-collective
// bandwidth/allocation behaviour.
type ExecBenchOptions struct {
	// Batches is the number of pipeline batches per throughput run
	// (default 32).
	Batches int
	// Ranks and Elems shape the collective benchmark: Ranks in-process MPI
	// ranks reducing Elems float32s (defaults 8 and 1<<20 — a 4 MiB slab
	// per rank, the scale where per-step allocation hurts).
	Ranks, Elems int
	// Reps is the number of timed repetitions; the best is recorded
	// (default 3).
	Reps int
	// Dataset / Div / OutN select the BuildScenario twin for the real
	// reconstruction rows (defaults: tomo_00030, 8, 64 — the kernelbench
	// scenario, so GUPS numbers line up across the two artifacts).
	Dataset   string
	Div, OutN int
	// Label tags the entry; GitCommit is resolved by the caller.
	Label     string
	GitCommit string
}

// Per-batch stage latencies for the pipeline throughput runs. The stages
// model device/IO waits with sleeps rather than spinning the CPU — the
// same approach as the dessim simulator — so worker scaling reflects
// latency hiding (the thing elastic stages exist for) independent of how
// many cores the benchmark host happens to have. Back-projection is the
// dominant stage, so making it elastic moves the bottleneck to filtering.
const (
	execBenchLoadLatency   = 2 * time.Millisecond
	execBenchFilterLatency = 3 * time.Millisecond
	execBenchBPLatency     = 8 * time.Millisecond
	execBenchStoreLatency  = time.Millisecond
)

// PipelineBench is one elastic-pipeline throughput measurement.
type PipelineBench struct {
	Workers       int     `json:"workers"` // back-projection stage width
	Batches       int     `json:"batches"`
	Seconds       float64 `json:"seconds"` // best-of-reps wall time
	BatchesPerSec float64 `json:"batches_per_sec"`
	// Speedup is BatchesPerSec relative to the Workers=1 row.
	Speedup float64 `json:"speedup"`
}

// ReconBench is one end-to-end single-rank reconstruction measurement.
// Unlike PipelineBench (sleep-modeled, kernel-independent), these rows run
// the real filter + back-projection pipeline, so kernel arithmetic and
// elastic back-projection width both show up in the wall time.
type ReconBench struct {
	Kernel    string  `json:"kernel"` // dispatched back-projection arithmetic
	BPWorkers int     `json:"bp_workers"`
	Slabs     int     `json:"slabs"`
	Updates   int64   `json:"updates"`
	Seconds   float64 `json:"seconds"` // best-of-reps wall time
	GUPS      float64 `json:"gups"`
	// Speedup is GUPS relative to the first row (the default kernel at
	// BPWorkers=1).
	Speedup float64 `json:"speedup"`
}

// CollectiveBench is one reduction measurement.
type CollectiveBench struct {
	Variant string  `json:"variant"` // "reduce", "reduce_chunked", "hierarchical"
	Pooled  bool    `json:"pooled"`
	Ranks   int     `json:"ranks"`
	Elems   int     `json:"elems"`
	Chunk   int     `json:"chunk,omitempty"`
	Seconds float64 `json:"seconds"` // best-of-reps wall time
	// GBPerSec rates the tree traffic (ranks−1 buffers) against wall time.
	GBPerSec       float64 `json:"gb_per_sec"`
	AllocBytesOp   uint64  `json:"alloc_bytes_per_op"`
	AllocObjectsOp uint64  `json:"alloc_objects_per_op"`
	PoolGetsOp     int64   `json:"pool_gets_per_op"`
	PoolMissesOp   int64   `json:"pool_misses_per_op"`
}

// ExecBenchEntry is one recorded run of the executor benchmark.
type ExecBenchEntry struct {
	Label       string            `json:"label"`
	GitCommit   string            `json:"git_commit,omitempty"`
	Timestamp   string            `json:"timestamp"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Pipeline    []PipelineBench   `json:"pipeline"`
	Recon       []ReconBench      `json:"recon,omitempty"`
	Collectives []CollectiveBench `json:"collectives"`
}

// ExecBenchFile is the BENCH_exec.json envelope: append-only, like
// BENCH_kernel.json, so the trajectory across PRs stays in one artifact.
type ExecBenchFile struct {
	Entries []*ExecBenchEntry `json:"entries"`
}

func (o *ExecBenchOptions) fill() {
	if o.Batches <= 0 {
		o.Batches = 32
	}
	if o.Ranks <= 0 {
		o.Ranks = 8
	}
	if o.Elems <= 0 {
		o.Elems = 1 << 20
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Dataset == "" {
		o.Dataset = "tomo_00030"
	}
	if o.Div <= 0 {
		o.Div = 8
	}
	if o.OutN <= 0 {
		o.OutN = 64
	}
}

// RunExecBench measures elastic pipeline throughput (batches/s at 1, 2 and
// 4 back-projection workers), real single-rank reconstructions (the default
// kernel vs the forced scalar path at BPWorkers 1 and 4) and the collective
// reduction variants
// (GB/s and allocations per op, pooled vs unpooled).
func RunExecBench(opts ExecBenchOptions) (*ExecBenchEntry, error) {
	opts.fill()
	entry := &ExecBenchEntry{
		Label:      opts.Label,
		GitCommit:  opts.GitCommit,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, w := range []int{1, 2, 4} {
		pb, err := benchPipeline(w, opts)
		if err != nil {
			return nil, err
		}
		if w == 1 {
			pb.Speedup = 1
		} else {
			pb.Speedup = pb.BatchesPerSec / entry.Pipeline[0].BatchesPerSec
		}
		entry.Pipeline = append(entry.Pipeline, *pb)
	}
	sc, err := BuildScenario(opts.Dataset, opts.Div, opts.OutN, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	for _, kernel := range []backproject.Kernel{backproject.KernelRecurrence, backproject.KernelScalar} {
		for _, w := range []int{1, 4} {
			rb, err := benchRecon(sc, kernel, w, opts)
			if err != nil {
				return nil, err
			}
			if base := entry.Recon; len(base) == 0 {
				rb.Speedup = 1
			} else {
				rb.Speedup = rb.GUPS / base[0].GUPS
			}
			entry.Recon = append(entry.Recon, *rb)
		}
	}
	chunk := max(opts.Elems/16, 1)
	rpn := 4
	if opts.Ranks%rpn != 0 {
		rpn = 1
	}
	for _, pooled := range []bool{false, true} {
		for _, variant := range []string{"reduce", "reduce_chunked", "hierarchical"} {
			cb, err := benchCollective(variant, pooled, chunk, rpn, opts)
			if err != nil {
				return nil, err
			}
			entry.Collectives = append(entry.Collectives, *cb)
		}
	}
	return entry, nil
}

// benchPipeline times the latency-modeled four-stage pipeline with the
// back-projection stage at the given width.
func benchPipeline(workers int, opts ExecBenchOptions) (*PipelineBench, error) {
	sleep := func(d time.Duration) pipeline.StageFunc {
		return func(int, any) (any, error) {
			time.Sleep(d)
			return nil, nil
		}
	}
	var best time.Duration
	for rep := 0; rep < opts.Reps; rep++ {
		p, err := pipeline.New(
			pipeline.Stage{Name: "load", Fn: sleep(execBenchLoadLatency)},
			pipeline.Stage{Name: "filter", Fn: sleep(execBenchFilterLatency)},
			pipeline.Stage{Name: "backproject", Workers: workers, Fn: sleep(execBenchBPLatency)},
			pipeline.Stage{Name: "store", Fn: sleep(execBenchStoreLatency)},
		)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := p.Run(opts.Batches); err != nil {
			return nil, err
		}
		if elapsed := time.Since(start); best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return &PipelineBench{
		Workers:       workers,
		Batches:       opts.Batches,
		Seconds:       best.Seconds(),
		BatchesPerSec: float64(opts.Batches) / best.Seconds(),
	}, nil
}

// benchRecon times a full single-rank reconstruction (filter, upload,
// back-project, store) through ReconstructSingle with the given kernel
// arithmetic and elastic back-projection width, keeping the best rep.
func benchRecon(sc *Scenario, kernel backproject.Kernel, bpWorkers int, opts ExecBenchOptions) (*ReconBench, error) {
	var best time.Duration
	var bestLedger device.Ledger
	var slabs int
	for rep := 0; rep < opts.Reps; rep++ {
		plan, err := core.NewPlan(sc.Sys, 1, 1, core.DefaultBatchCount)
		if err != nil {
			return nil, err
		}
		sink, err := core.NewVolumeSink(sc.Sys)
		if err != nil {
			return nil, err
		}
		report, err := core.ReconstructSingle(core.ReconOptions{
			Plan:      plan,
			Source:    sc.Source,
			Device:    device.New("execbench", 0, runtime.GOMAXPROCS(0)),
			Kernel:    kernel,
			Sink:      sink,
			BPWorkers: bpWorkers,
		})
		if err != nil {
			return nil, err
		}
		if best == 0 || report.Elapsed < best {
			best, bestLedger, slabs = report.Elapsed, report.Ledger, report.Slabs
		}
	}
	return &ReconBench{
		Kernel:    bestLedger.Arithmetic(),
		BPWorkers: bpWorkers,
		Slabs:     slabs,
		Updates:   bestLedger.VoxelUpdates,
		Seconds:   best.Seconds(),
		GUPS:      bestLedger.GUPS(best),
	}, nil
}

// benchCollective times one reduction variant over Reps runs. Allocation
// and arena counters are averaged over the reps (they are deterministic
// per run); wall time keeps the best.
func benchCollective(variant string, pooled bool, chunk, rpn int, opts ExecBenchOptions) (*CollectiveBench, error) {
	prev := mpi.SetBufferPooling(pooled)
	defer mpi.SetBufferPooling(prev)

	bufs := make([][]float32, opts.Ranks)
	for r := range bufs {
		bufs[r] = make([]float32, opts.Elems)
		for i := range bufs[r] {
			bufs[r][i] = float32(r + i%7)
		}
	}
	runOnce := func() (time.Duration, error) {
		start := time.Now()
		err := mpi.Run(opts.Ranks, func(c *mpi.Comm) error {
			switch variant {
			case "reduce":
				return c.Reduce(0, bufs[c.Rank()])
			case "reduce_chunked":
				return c.ReduceChunked(0, bufs[c.Rank()], chunk)
			case "hierarchical":
				return c.HierarchicalReduce(0, bufs[c.Rank()], rpn)
			}
			return fmt.Errorf("execbench: unknown variant %q", variant)
		})
		return time.Since(start), err
	}
	// Warm-up run: populates the arena (pooled) and steadies the heap, so
	// the measured reps reflect steady-state behaviour either way.
	if _, err := runOnce(); err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0 := mpi.BufferPoolStats()
	var best time.Duration
	for rep := 0; rep < opts.Reps; rep++ {
		elapsed, err := runOnce()
		if err != nil {
			return nil, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	runtime.ReadMemStats(&m1)
	p1 := mpi.BufferPoolStats()

	reps := uint64(opts.Reps)
	moved := float64(opts.Ranks-1) * float64(opts.Elems) * 4
	cb := &CollectiveBench{
		Variant:        variant,
		Pooled:         pooled,
		Ranks:          opts.Ranks,
		Elems:          opts.Elems,
		Seconds:        best.Seconds(),
		GBPerSec:       moved / best.Seconds() / 1e9,
		AllocBytesOp:   (m1.TotalAlloc - m0.TotalAlloc) / reps,
		AllocObjectsOp: (m1.Mallocs - m0.Mallocs) / reps,
		PoolGetsOp:     (p1.Gets - p0.Gets) / int64(reps),
		PoolMissesOp:   (p1.Misses - p0.Misses) / int64(reps),
	}
	if variant == "reduce_chunked" {
		cb.Chunk = chunk
	}
	return cb, nil
}

// AppendExecBenchJSON appends entry to the BENCH_exec.json at path,
// creating the file when absent.
func AppendExecBenchJSON(path string, entry *ExecBenchEntry) error {
	var file ExecBenchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("execbench: existing %s is not a bench file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Entries = append(file.Entries, entry)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Summary renders the entry as one human line per measurement.
func (e *ExecBenchEntry) Summary() string {
	s := fmt.Sprintf("%s (%s)\n", e.Label, e.GitCommit)
	for _, pb := range e.Pipeline {
		s += fmt.Sprintf("  pipeline bp-workers=%d  %7.1f batches/s  %.2fx\n",
			pb.Workers, pb.BatchesPerSec, pb.Speedup)
	}
	for _, rb := range e.Recon {
		s += fmt.Sprintf("  recon [%s] bp-workers=%d  %6.4f GUPS  %.3fs  %.2fx\n",
			rb.Kernel, rb.BPWorkers, rb.GUPS, rb.Seconds, rb.Speedup)
	}
	for _, cb := range e.Collectives {
		mode := "unpooled"
		if cb.Pooled {
			mode = "pooled"
		}
		s += fmt.Sprintf("  %-14s %-8s %6.2f GB/s  %10d B/op  %6d allocs/op\n",
			cb.Variant, mode, cb.GBPerSec, cb.AllocBytesOp, cb.AllocObjectsOp)
	}
	return s
}
