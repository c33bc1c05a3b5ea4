package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/pipeline"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// batch is one slab of a rank's schedule and the one value its stages hand
// on: the first group of fields is the schedule (what a Plan supplies for a
// group), the second is filled in as the batch moves through the stages.
type batch struct {
	c      int               // ordinal: the span tag, the journal's debug field
	z0, nz int               // output slices [z0, z0+nz), nz > 0
	rows   geometry.RowRange // detector rows the slab needs (Algorithm 2); empty when none sees it

	skip  bool              // already durable in the checkpoint log
	stack *projection.Stack // newly loaded rows; nil when all are resident
	slab  *volume.Volume    // the program's slab buffer, from backproject until the batch leaves
}

// zSchedule cuts the slices [z0, z0+nz) into batches of nb slices.
func zSchedule(sys *geometry.System, z0, nz, nb int) []batch {
	var out []batch
	for z := z0; z < z0+nz; z += nb {
		n := min(nb, z0+nz-z)
		out = append(out, batch{c: len(out), z0: z, nz: n, rows: sys.ComputeAB(z, z+n)})
	}
	return out
}

// ringDepth returns the ring depth (in detector rows) a schedule needs: the
// largest row range of any one batch, since backproject releases every row
// below a batch's start before it admits the batch's rows.
func ringDepth(sched []batch) int {
	h := 0
	for _, b := range sched {
		h = max(h, b.rows.Len())
	}
	return h
}

// program is the per-rank reconstruction program of Figure 6, written once:
// load → filter → back-project → reduce → store over a schedule of slab
// batches, run by pipeline.Run with its stages on separate goroutines, so
// the reduce and store of batch c overlap the load and filter of the batches
// after it. ReconstructSingle, every rank of RunDistributed and every chunk
// of a RunBatchBaseline rank fill in the exported-option half and call run,
// and every one of them builds the same stage list: reduce where there is a
// group, store where there is a sink.
//
// Each piece of cross-batch state has exactly one owning stage, which is
// what lets the stages run on separate goroutines:
//
//	load         the differential-load cursor (loaded)
//	filter       nothing — it filters the batch's own host stack
//	backproject  every ring mutation and the residency cursor (resident),
//	             then the kernel, which reads the ring; the ring is
//	             unsynchronised, so its writer and its reader share this
//	             stage's goroutine
//	reduce       the group collective
//	store        the sink and the checkpoint journal
//
// The rank has one slab buffer. A batch holds it from back-projection until
// it leaves the rank — through the last stage, or at the stage where it
// failed — so the kernel of batch c+1 starts once batch c is stored: the
// one slab is the credit that bounds the batches a rank has in flight past
// its kernel to one.
//
// Both cursors advance on executed batches only, so a resumed run reloads
// whatever a checkpointed batch would have left resident.
type program struct {
	// ReconOptions is what one device needs whichever shell it sits in; a
	// distributed rank fills one in per rank. Plan is not read here (the
	// shell hands over sched) and a nil Sink means this rank does not store.
	ReconOptions
	sys      *geometry.System
	sched    []batch
	pLo, pHi int // this rank's global projection window
	// group, when set, is reduced over after back-projection.
	group        *mpi.Comm
	hierarchical bool
	ranksPerNode int
	// enter is pipeline.Run's hook, called before every (stage, batch)
	// invocation: the distributed shell's kill point, phase markers and
	// fault phase record. Nil in the other shells.
	enter func(stage string, c int) error

	retry  *fault.RetryPolicy // Retry, reporting into Telemetry
	fdk    *filter.FDK
	parker *filter.Parker
	mats   []geometry.Mat34x4
	ring   *device.ProjRing
	// slab holds the rank's one slab buffer while no batch does. Nothing
	// downstream keeps a slab (reductions copy a non-root's partial sums
	// before sending, the root accumulates in place, a SlabSink must be done
	// with it when WriteSlab returns), so a batch hands it back as it leaves.
	slab chan []float32
	// failed is set by a batch that fails while holding the slab, before it
	// hands the slab back, and makes every later stage invocation idle. The
	// executor records a failure only once the stage returns: in between, a
	// back-projection could take the slab for a batch nothing will store,
	// or pass a batch on to reduce and store with no slab.
	failed           atomic.Bool
	loaded, resident geometry.RowRange
	last             string        // name of the rank's last stage
	elapsed          time.Duration // of the executor, setup excluded
	// done and skipped count this run's executed and checkpointed batches;
	// their parents are the registry's core.batches{,_skipped}, which total
	// them over the attempts of a supervised run.
	done, skipped telemetry.Counter
}

// run executes the program. done and skipped are meaningful afterwards even
// when it fails.
func (e *program) run() error {
	if nu, np, nv := e.Source.Dims(); nu != e.sys.NU || np != e.sys.NP || nv != e.sys.NV {
		return fmt.Errorf("core: source %dx%dx%d does not match system %dx%dx%d",
			nu, np, nv, e.sys.NU, e.sys.NP, e.sys.NV)
	}
	var err error
	if e.fdk, err = NewFilter(e.sys, e.Window); err != nil {
		return err
	}
	if e.parker, err = NewParker(e.sys); err != nil {
		return err
	}
	e.mats = KernelMatrices(e.sys, e.pLo, e.pHi)
	// A schedule no detector row sees needs no ring: its slabs are zero.
	if h := ringDepth(e.sched); h > 0 {
		if e.ring, err = device.NewProjRing(e.Device, e.sys.NU, e.pHi-e.pLo, h); err != nil {
			return err
		}
		defer e.ring.Close()
	}
	// The device also holds the rank's one slab.
	slabVoxels := 0
	for _, b := range e.sched {
		slabVoxels = max(slabVoxels, e.sys.NX*e.sys.NY*b.nz)
	}
	if err := e.Device.Alloc(4 * int64(slabVoxels)); err != nil {
		return fmt.Errorf("slab buffer: %w", err)
	}
	defer e.Device.Free(4 * int64(slabVoxels))
	e.slab = make(chan []float32, 1)
	e.slab <- make([]float32, slabVoxels)
	e.Device.SetTelemetry(e.Telemetry)
	e.retry = e.Retry.Instrumented(e.Telemetry)
	e.done.SetParent(e.Telemetry.Counter("core.batches"))
	e.skipped.SetParent(e.Telemetry.Counter("core.batches_skipped"))

	stages := []pipeline.Stage{e.stage("load", e.load), e.stage("filter", e.filter), e.stage("backproject", e.backproject)}
	if e.group != nil {
		stages = append(stages, e.stage("reduce", e.reduce))
	}
	if e.Sink != nil {
		stages = append(stages, e.stage("store", e.store))
	}
	e.last = stages[len(stages)-1].Name

	pl, err := pipeline.New(stages...)
	if err != nil {
		return err
	}
	pl.Telemetry = e.Telemetry
	start := time.Now()
	err = pl.Run(len(e.sched), e.enter)
	e.elapsed = time.Since(start)
	return err
}

// report runs the program on a caller-owned device and summarises it.
func (e *program) report() (*ReconReport, error) {
	before := e.Device.Snapshot()
	if err := e.run(); err != nil {
		return nil, err
	}
	return &ReconReport{Elapsed: e.elapsed, Ledger: e.Device.Snapshot().Sub(before), Slabs: int(e.done.Value())}, nil
}

// stage adapts a stage body to the pipeline, which hands it only the batch
// index to look up in the schedule. A checkpointed batch is idle in every
// stage, so it neither loads rows, mutates the ring nor stores — and never
// advances a cursor — and so is every batch once one has failed holding the
// slab. A batch is executed once it has left the
// rank's last stage; it hands the slab back there, or at the stage that
// failed it.
func (e *program) stage(name string, body func(*batch) error) pipeline.Stage {
	return pipeline.Stage{Name: name, Fn: func(c int) error {
		b := &e.sched[c]
		if b.skip || e.failed.Load() {
			return pipeline.Idle
		}
		err := body(b)
		if b.slab != nil && (err != nil || name == e.last) {
			if err != nil {
				e.failed.Store(true)
			}
			e.slab <- b.slab.Data[:cap(b.slab.Data)]
			b.slab = nil
		}
		if err == nil && name == e.last {
			e.done.Inc()
		}
		return err
	}}
}

func (e *program) load(b *batch) error {
	// The skip rule. The checkpoint key is the slab's output identity z0,
	// not its (group, batch) coordinates, so journals interoperate across
	// drivers and a journal recorded by a larger world resumes cleanly after
	// a shrink renumbers both. A whole group skips together: Done(z0) reads
	// the same pre-run journal state on every rank, and the leader records a
	// batch only after its group has passed it, so collectives always pair.
	if e.Checkpoint != nil && e.Checkpoint.Done(b.z0) {
		b.skip = true
		e.skipped.Inc()
		return pipeline.Idle
	}
	diff := geometry.DifferentialRows(e.loaded, b.rows)
	e.loaded = b.rows
	if diff.IsEmpty() {
		return pipeline.Idle
	}
	return e.retry.Do(func() error {
		var err error
		b.stack, err = e.Source.LoadRows(diff, e.pLo, e.pHi)
		return err
	})
}

func (e *program) filter(b *batch) error {
	if b.stack == nil {
		return pipeline.Idle
	}
	return filterStack(e.fdk, e.parker, b.stack, e.Device.WorkerCount())
}

// filterStack weights a freshly loaded stack's rows by their global
// projection index (a nil Parker is a full scan: no weights) and filters
// them on workers: the host half of every load, before LoadRows.
func filterStack(fdk *filter.FDK, pk *filter.Parker, st *projection.Stack, workers int) error {
	if pk != nil {
		if err := pk.ApplyRows(st.Data, st.NV*st.NP, func(i int) int { return st.P0 + i%st.NP }); err != nil {
			return err
		}
	}
	return fdk.FilterRows(st.Data, st.NV*st.NP, func(i int) int { return st.V0 + i/st.NP }, workers)
}

// backproject makes room in the ring and admits the batch's filtered rows
// (the previous batch has been back-projected, so every row below this
// batch's start can go), then back-projects the batch into the rank's slab.
// A batch no detector row sees leaves the ring alone and its slab zero.
func (e *program) backproject(b *batch) error {
	if !b.rows.IsEmpty() {
		if !e.resident.IsEmpty() && b.rows.Lo >= e.resident.Hi {
			e.ring.Reset() // disjoint ranges: nothing to reuse
		} else {
			e.ring.Release(b.rows.Lo)
		}
		e.resident = b.rows
	}
	if st := b.stack; st != nil {
		b.stack = nil
		if err := e.ring.LoadRows(st, st.Rows()); err != nil {
			return err
		}
	}
	buf := <-e.slab // the previous batch has left the rank
	if e.failed.Load() {
		e.slab <- buf
		return pipeline.Idle
	}
	b.slab = &volume.Volume{NX: e.sys.NX, NY: e.sys.NY, NZ: b.nz, Z0: b.z0, Data: buf[:e.sys.NX*e.sys.NY*b.nz]}
	clear(b.slab.Data)
	if !b.rows.IsEmpty() {
		if err := backproject.Streaming(e.Device, e.ring, e.mats, b.slab, b.rows); err != nil {
			return err
		}
	}
	e.Device.RecordD2H(b.slab.Bytes())
	return nil
}

// reduce is the segmented reduction: only within the group (Figure 3b),
// chunk-pipelined through the tree one XY plane at a time unless the
// node-leader variant of Section 4.4.2 was asked for.
func (e *program) reduce(b *batch) error {
	if e.hierarchical {
		return e.group.HierarchicalReduce(0, b.slab.Data, e.ranksPerNode)
	}
	return e.group.ReduceChunked(0, b.slab.Data, e.sys.NX*e.sys.NY)
}

func (e *program) store(b *batch) error {
	// Slab offsets are fixed, so a retried store is idempotent.
	if err := e.retry.Do(func() error { return e.Sink.WriteSlab(b.slab) }); err != nil {
		return err
	}
	if e.Checkpoint == nil {
		return nil
	}
	// Data before journal: force the slab to stable storage, then record it
	// done — never the other way round. Sync is what a sink must
	// additionally implement for checkpointing to be crash-safe.
	if sy, ok := e.Sink.(interface{ Sync() error }); ok {
		if err := sy.Sync(); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
	}
	if err := e.Checkpoint.Record(b.z0, b.c); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
