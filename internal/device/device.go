// Package device simulates the accelerator on which the back-projection
// kernel runs. The paper's kernels execute on V100/A100 GPUs with explicit
// device-memory management (Listing 1, Algorithm 3); here the "device" is a
// CPU worker pool with a byte-accurate memory budget, a host↔device transfer
// ledger, and the ring-buffered projection row store whose modular
// addressing (`Z = z mod H`, the split cudaMemcpy3D of Algorithm 3) is what
// gives the paper its streaming/out-of-core capability. Keeping the budget
// and ledger exact lets the out-of-core experiments (Table 5) reproduce the
// paper's capacity cliffs — e.g. the RTK baseline failing beyond 8 GB on a
// 16 GB device — without GPU hardware.
package device

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"distfdk/internal/telemetry"
)

// ErrOutOfMemory is reported when an allocation would exceed the device's
// memory capacity — the condition that makes batch-decomposition frameworks
// reject large volumes (Table 5's ✗ entries).
var ErrOutOfMemory = errors.New("device: out of device memory")

// Ledger is the traffic and work a device has performed: a value view read
// off the device's counters (Snapshot). All fields are byte/operation totals
// since the device's construction; Ledger values are retrieved by copy and
// may be diffed across phases.
type Ledger struct {
	// H2DBytes and D2HBytes are host→device / device→host transfer
	// volumes.
	H2DBytes, D2HBytes int64
	// H2DOps and D2HOps count discrete transfer operations (an
	// Algorithm 3 wrap-around load counts as two, exactly like its two
	// cudaMemcpy3D calls).
	H2DOps, D2HOps int64
	// KernelLaunches counts back-projection kernel invocations.
	KernelLaunches int64
	// VoxelUpdates counts voxel×projection accumulation steps, the
	// quantity behind the paper's GUPS metric. Samples the kernel proves
	// zero and skips still count as updates — GUPS measures output work,
	// not instructions retired.
	VoxelUpdates int64
	// InteriorSamples and BorderSamples split the *evaluated* samples by
	// kernel path (branch-free interior fast path vs branchy border
	// path); SkippedSamples counts updates clipped away as provably zero.
	// Their sum equals VoxelUpdates. They are read off the kernel's span
	// decisions, not off the code that ran, so they do not depend on
	// which spelling a launch dispatched to.
	InteriorSamples, BorderSamples, SkippedSamples int64
	// Dispatched counts the kernel launches that ran each code path: the
	// record of which one produced the volume, and the only kernel number
	// that depends on the host. Launches over an empty slab dispatch
	// nothing.
	Dispatched [numArithmetics]int64
}

// Arithmetic names the code path a back-projection launch dispatched to:
// three spellings of one arithmetic, which produce the same bytes.
type Arithmetic int

const (
	// ArithmeticAVX2 is the kernel spelled in 8-lane AVX2 assembly.
	ArithmeticAVX2 Arithmetic = iota
	// ArithmeticScalar is the kernel spelled in Go, lane by lane.
	ArithmeticScalar
	// ArithmeticAVX512 is the kernel spelled in 16-lane AVX-512 assembly.
	ArithmeticAVX512
	numArithmetics
)

func (a Arithmetic) String() string {
	switch a {
	case ArithmeticAVX2:
		return "avx2"
	case ArithmeticScalar:
		return "scalar"
	case ArithmeticAVX512:
		return "avx512"
	}
	return fmt.Sprintf("arithmetic(%d)", int(a))
}

// Arithmetic names what the ledger's launches dispatched to: one name, or
// several joined by "+" when they differed (a projection buffer past the
// 32-bit gather range runs the Go spelling beside vector launches); empty when
// no launch did work.
func (l Ledger) Arithmetic() string {
	var names []string
	for a, n := range l.Dispatched {
		if n > 0 {
			names = append(names, Arithmetic(a).String())
		}
	}
	return strings.Join(names, "+")
}

// Device models one accelerator.
type Device struct {
	// Name labels the device in reports ("v100-sim", …).
	Name string
	// MemBytes is the device memory capacity; 0 means unlimited.
	MemBytes int64
	// Workers is the execution width (goroutines) of the kernel and of the
	// filter that feeds it; 0 means GOMAXPROCS.
	Workers int

	allocated atomic.Int64

	// The counters below are the only store of what the device did: each
	// Record* call adds to them once, Snapshot reads the Ledger off them,
	// and SetTelemetry makes a registry's counters their parents, so the
	// run's artifacts total the same adds over every device the registry is
	// given.
	h2dBytes, d2hBytes           telemetry.Counter
	h2dOps, d2hOps               telemetry.Counter
	kernelLaunches, voxelUpdates telemetry.Counter

	interiorSamples, borderSamples, skippedSamples telemetry.Counter
	dispatched                                     [numArithmetics]telemetry.Counter

	// The projection ring's own numbers have no Ledger field, so the device
	// keeps no view of them: these are the registry's handles themselves,
	// nil (inert) until SetTelemetry.
	ringLoadRows    *telemetry.Counter // detector rows copied host→device
	ringLoadOps     *telemetry.Counter // discrete copies (a wrap-around load is 2)
	ringLoadNs      *telemetry.Counter // time spent in ring copies
	ringEvictedRows *telemetry.Counter // rows dropped by Release/Reset
	ringResets      *telemetry.Counter // full ring resets (disjoint schedules)
	ringResident    *telemetry.Gauge   // rows resident after the last mutation
}

// New returns a device with the given capacity (0 = unlimited) and worker
// count (0 = GOMAXPROCS).
func New(name string, memBytes int64, workers int) *Device {
	return &Device{Name: name, MemBytes: memBytes, Workers: workers}
}

// SetTelemetry makes reg's counters the parents of the device's: from here
// on every count the device takes also lands in the registry, under the
// names below. The device's own view (Snapshot) is not touched — it keeps
// counting from the device's construction — and the registry sees nothing
// counted before the call. A nil registry detaches. Call before the device
// is shared across goroutines (the rank program does it before its stages
// start). Granularity is per launch and per batch-level ring operation,
// never per sample.
func (d *Device) SetTelemetry(reg *telemetry.Registry) {
	for name, c := range map[string]*telemetry.Counter{
		"device.h2d_bytes":        &d.h2dBytes,
		"device.d2h_bytes":        &d.d2hBytes,
		"device.h2d_ops":          &d.h2dOps,
		"device.d2h_ops":          &d.d2hOps,
		"kernel.launches":         &d.kernelLaunches,
		"kernel.voxel_updates":    &d.voxelUpdates,
		"kernel.interior_samples": &d.interiorSamples,
		"kernel.border_samples":   &d.borderSamples,
		"kernel.skipped_samples":  &d.skippedSamples,
	} {
		c.SetParent(reg.Counter(name))
	}
	for a := range d.dispatched {
		d.dispatched[a].SetParent(reg.Counter("kernel.dispatch." + Arithmetic(a).String()))
	}
	d.ringLoadRows = reg.Counter("device.ring.load_rows")
	d.ringLoadOps = reg.Counter("device.ring.load_ops")
	d.ringLoadNs = reg.Counter("device.ring.load_ns")
	d.ringEvictedRows = reg.Counter("device.ring.evicted_rows")
	d.ringResets = reg.Counter("device.ring.resets")
	d.ringResident = reg.Gauge("device.ring.resident_rows")
}

// WorkerCount returns the effective execution width: the one parallelism a
// rank program has.
func (d *Device) WorkerCount() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Alloc reserves n bytes of device memory.
func (d *Device) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("device: negative allocation %d", n)
	}
	if new := d.allocated.Add(n); d.MemBytes > 0 && new > d.MemBytes {
		d.allocated.Add(-n)
		return fmt.Errorf("%w: need %d, used %d of %d", ErrOutOfMemory, n, new-n, d.MemBytes)
	}
	return nil
}

// Free releases n bytes of device memory.
func (d *Device) Free(n int64) {
	if d.allocated.Add(-n) < 0 {
		panic("device: negative allocation balance")
	}
}

// Allocated returns the currently reserved bytes.
func (d *Device) Allocated() int64 { return d.allocated.Load() }

// recordH2D accounts a host→device transfer of n bytes in ops operations.
// The ring is its one caller: every upload a kernel reads is a LoadRows.
func (d *Device) recordH2D(n int64, ops int64) {
	d.h2dBytes.Add(n)
	d.h2dOps.Add(ops)
}

// RecordD2H accounts a device→host transfer of n bytes.
func (d *Device) RecordD2H(n int64) {
	d.d2hBytes.Add(n)
	d.d2hOps.Inc()
}

// RecordKernel accounts a kernel launch performing updates voxel×projection
// accumulations.
func (d *Device) RecordKernel(updates int64) {
	d.kernelLaunches.Inc()
	d.voxelUpdates.Add(updates)
}

// RecordKernelSamples accounts one launch's sample-path classification:
// interior fast-path samples, border-path samples and samples skipped as
// provably zero. Called once per launch with worker-aggregated totals —
// never per sample.
func (d *Device) RecordKernelSamples(interior, border, skipped int64) {
	d.interiorSamples.Add(interior)
	d.borderSamples.Add(border)
	d.skippedSamples.Add(skipped)
}

// RecordDispatch accounts which arithmetic one kernel launch ran.
func (d *Device) RecordDispatch(a Arithmetic) { d.dispatched[a].Inc() }

// Snapshot returns the current ledger totals: the device's counters, read.
func (d *Device) Snapshot() Ledger {
	l := Ledger{
		H2DBytes:       d.h2dBytes.Value(),
		D2HBytes:       d.d2hBytes.Value(),
		H2DOps:         d.h2dOps.Value(),
		D2HOps:         d.d2hOps.Value(),
		KernelLaunches: d.kernelLaunches.Value(),
		VoxelUpdates:   d.voxelUpdates.Value(),

		InteriorSamples: d.interiorSamples.Value(),
		BorderSamples:   d.borderSamples.Value(),
		SkippedSamples:  d.skippedSamples.Value(),
	}
	for a := range l.Dispatched {
		l.Dispatched[a] = d.dispatched[a].Value()
	}
	return l
}

// GUPS converts the ledger's voxel-update count into the paper's headline
// throughput metric: giga voxel×projection updates per second of wall time.
// It returns 0 when elapsed is non-positive.
func (l Ledger) GUPS(elapsed time.Duration) float64 {
	s := elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(l.VoxelUpdates) / 1e9 / s
}

// Sub returns l − o field-wise, for per-phase accounting.
func (l Ledger) Sub(o Ledger) Ledger {
	d := Ledger{
		H2DBytes: l.H2DBytes - o.H2DBytes, D2HBytes: l.D2HBytes - o.D2HBytes,
		H2DOps: l.H2DOps - o.H2DOps, D2HOps: l.D2HOps - o.D2HOps,
		KernelLaunches: l.KernelLaunches - o.KernelLaunches,
		VoxelUpdates:   l.VoxelUpdates - o.VoxelUpdates,

		InteriorSamples: l.InteriorSamples - o.InteriorSamples,
		BorderSamples:   l.BorderSamples - o.BorderSamples,
		SkippedSamples:  l.SkippedSamples - o.SkippedSamples,
	}
	for a := range d.Dispatched {
		d.Dispatched[a] = l.Dispatched[a] - o.Dispatched[a]
	}
	return d
}

// Presets matching the paper's evaluation hardware. Capacities are the
// nominal device memory sizes; the usable projection-ring budget is
// whatever remains after the slab allocation, exactly as on real hardware.
const (
	// V100MemBytes is the 16 GB of the ABCI V100s.
	V100MemBytes = 16 << 30
	// A100MemBytes is the 40 GB of the A100 nodes in Table 5.
	A100MemBytes = 40 << 30
)
