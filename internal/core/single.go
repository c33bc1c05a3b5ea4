package core

import (
	"fmt"
	"sync"
	"time"

	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// SlabSink receives finished sub-volumes from the store stage. Both the
// in-memory VolumeSink and storage.SlabWriter satisfy it. WriteSlab must
// not keep the slab or its Data after it returns: every rank program —
// ReconstructSingle's, ReconstructZWindow's and each RunDistributed rank's —
// back-projects its next batch into the same buffer.
type SlabSink interface {
	WriteSlab(*volume.Volume) error
}

// VolumeSink assembles slabs into one in-memory volume; safe for concurrent
// writers.
type VolumeSink struct {
	V  *volume.Volume
	mu sync.Mutex
}

// NewVolumeSink allocates a sink covering the plan's full volume.
func NewVolumeSink(sys *geometry.System) (*VolumeSink, error) {
	v, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	return &VolumeSink{V: v}, nil
}

// WriteSlab implements SlabSink.
func (s *VolumeSink) WriteSlab(slab *volume.Volume) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.V.CopySlabFrom(slab)
}

// DiscardSink is a SlabSink that drops every slab. Follower processes of
// a multi-process world use it: group leaders — the only ranks that store
// — are pinned to the coordinator process, so a follower's sink is never
// written, but ClusterOptions still requires one.
type DiscardSink struct{}

// WriteSlab implements SlabSink by discarding the slab.
func (DiscardSink) WriteSlab(*volume.Volume) error { return nil }

// NewFilter builds the FDK row filter for a system, folding the angular
// quadrature into the filter gain so back-projection output is in density
// units without post-scaling: Δβ/2 for a full scan (each ray measured
// twice), Δβ for a Parker-weighted short scan (redundancy handled by the
// weights).
func NewFilter(sys *geometry.System, window filter.Window) (*filter.FDK, error) {
	scale := sys.AngleStep() / 2
	if sys.IsShortScan() {
		scale = sys.AngleStep()
	}
	return filter.NewFDK(filter.Config{
		NU: sys.NU, NV: sys.NV,
		DU: sys.DU, DV: sys.DV,
		DSD:    sys.DSD,
		SigmaU: sys.SigmaU, SigmaV: sys.SigmaV,
		Window: window,
		Scale:  scale,
		// Filter on the virtual detector through the rotation axis
		// (the FDK magnification correction).
		RampPitch: sys.DU * sys.DSO / sys.DSD,
	})
}

// KernelMatrices precomputes the float32 projection matrices for the global
// projection window [pLo, pHi).
func KernelMatrices(sys *geometry.System, pLo, pHi int) []geometry.Mat34x4 {
	out := make([]geometry.Mat34x4, 0, pHi-pLo)
	for p := pLo; p < pHi; p++ {
		out = append(out, sys.Matrix(sys.Angle(p)).ToKernel())
	}
	return out
}

// ReconOptions configures a single-device out-of-core reconstruction.
type ReconOptions struct {
	// Plan must describe a single rank (Ng=1, Nr=1); BatchCount controls
	// the slab granularity and hence the device-memory footprint.
	Plan *Plan
	// Source supplies the (unfiltered) projection data.
	Source projection.Source
	// Device executes the kernel and enforces the memory budget; its
	// WorkerCount is the width of the filter and of the kernel.
	Device *device.Device
	// Window selects the ramp apodisation (default Ram-Lak).
	Window filter.Window
	// Sink receives finished slabs (required).
	Sink SlabSink
	// Retry, when set, retries transient load and store failures with
	// capped exponential backoff; permanent failures abort immediately.
	// Nil means a single attempt.
	Retry *fault.RetryPolicy
	// Checkpoint, when set, journals every stored slab (keyed by its
	// first slice z0) and skips slabs the log already records — pass a
	// reopened journal to resume a killed run from its last durable
	// batch. The resumed volume is bit-identical to an uninterrupted one.
	Checkpoint CheckpointLog
	// Telemetry, when set, collects the run's metrics and spans: pipeline
	// stage spans, device and kernel counts, and retry activity all report
	// into this registry; telemetry.RenderGantt draws the Figure 10-style
	// timeline from its spans. Nil keeps every instrumented path at a single
	// pointer check.
	Telemetry *telemetry.Registry
}

// ReconReport summarises a reconstruction run.
type ReconReport struct {
	Elapsed time.Duration
	Ledger  device.Ledger
	// Slabs is the number of non-empty batches processed.
	Slabs int
}

// ReconstructSingle performs the paper's out-of-core single-device
// reconstruction (Table 5's scenario): slabs stream through the
// load → filter → back-project → store pipeline of Figure 9 while the
// projection ring keeps every detector row's host-to-device transfer to
// exactly one, no matter how large the output volume is relative to device
// memory.
func ReconstructSingle(opts ReconOptions) (*ReconReport, error) {
	p := opts.Plan
	if p == nil || opts.Source == nil || opts.Device == nil || opts.Sink == nil {
		return nil, fmt.Errorf("core: Plan, Source, Device and Sink are required")
	}
	if p.Ranks() != 1 {
		return nil, fmt.Errorf("core: ReconstructSingle needs a 1-rank plan, got %s", p)
	}
	// The one-rank instance of the rank program: the whole projection
	// window, no group to reduce over.
	prog := &program{ReconOptions: opts, sys: p.Sys, sched: p.schedule(0), pHi: p.Sys.NP}
	return prog.report()
}
