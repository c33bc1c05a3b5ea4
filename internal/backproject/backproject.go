// Package backproject implements the paper's primary contribution: the
// streaming cone-beam back-projection kernel of Listing 1, which consumes
// sub-projections decomposed along both the detector-row (Nv) and angle
// (Np) axes from a ring-buffered device store. Every launch reads a ring:
// the batch reconstruction of Algorithm 1 (RTK-style, the paper's
// baseline) is one launch over a ring as tall as the detector.
//
// There is one kernel. It evaluates the homogeneous coordinates (u, v, w)
// of Algorithm 1 directly at every column of an output row, a vector of
// columns at a time. The row is clipped to its detector support (columns
// whose 2×2 footprint lies entirely outside the readable window contribute
// exactly +0 and are skipped), the (k, j, s) loops are blocked so a small
// window of detector rows stays cache-resident across a voxel sweep, and a
// (row, projection) pair visits the slices of a k-tile innermost, where
// u, w, one exact reciprocal and everything else that does not depend on z
// is computed once per column for all of them. It has one arithmetic (the
// coordinate contract in simd.go) and three spellings of it, AVX-512 and
// AVX2 assembly and Go, chosen per launch from what the host can run; the
// bytes do not depend on the choice.
//
// It has one oracle, a test function: Algorithm 1 evaluated voxel by voxel
// under the same contract, each of the four bilinear neighbours tested
// against the readable window, with none of the kernel's spans, tiles,
// groups or bodies. Every spelling, body, tile and decomposition must match
// it byte for byte. The computed contribution of column i is a function of
// (i, row constants) alone, shared by the unguarded, guarded and
// span-predicate paths, so a slab-decomposed streaming reconstruction is
// bit-identical to a monolithic batch reconstruction over the same
// projections — the equivalence the paper validates against RTK with an
// RMSE threshold, made exact here because we control both implementations.
package backproject

import (
	"fmt"
	"math"
	"sync"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// Kernel is the type of StreamingKernel's last argument. There is one
// kernel; the type is kept only because the frozen bench/replay.go spells it.
type Kernel int

// KernelRecurrence is the one Kernel value, kept only because the frozen
// bench/replay.go spells it. The name predates direct coordinate
// evaluation: the kernel walks no recurrence.
const KernelRecurrence Kernel = 0

// projAccess provides the kernel's view of projection storage: the
// ring-buffered device store, a device.Layout whose row v lives in slot
// v mod H (Listing 1's devPixel), so that the sample (v, s, u) lives at
// rowOff[v−lo+2] + s·sStride + u. rowOff caches the storage offset of every
// readable row, hoisting the slot arithmetic out of the per-sample path,
// between two entries on either side that name the layout's zero slot: what
// the rows just outside [lo,hi) read as. With the layout's zero apron around
// every run of samples, the texture border of Listing 1 is data: rows
// lo−2..hi+1 and columns −2..nu+1 are loadable, and are +0 wherever the
// window ends.
type projAccess struct {
	data    []float32
	nu, np  int
	sStride int   // storage distance between projections of one row
	lo, hi  int   // global rows readable [lo, hi)
	rowOff  []int // rowOff[v-lo+2] = storage offset of global row v
	// rowIdx32 is rowOff narrowed to int32 for the assembly's gather
	// instructions; built by prepareSIMD, in the array it already holds,
	// when a launch dispatches to them.
	rowIdx32 []int32
	// arith is the spelling of the kernel the launch runs; accumulateSlab
	// decides it once per launch.
	arith device.Arithmetic
	// win is the readable window as the kernel's span decisions use it;
	// accumulateSlab derives it once per launch.
	win spanWindow
}

// layoutAccess addresses the rows [lo,hi) of a store laid out by l. Its row
// table reuses rowOff's array when that is large enough.
func layoutAccess(l device.Layout, data []float32, lo, hi int, rowOff []int) projAccess {
	a := projAccess{data: data, nu: l.NU, np: l.NP, sStride: l.ProjStride(), lo: lo, hi: hi, arith: device.ArithmeticScalar}
	a.rowOff = resized(rowOff, hi-lo+4)
	for i := range a.rowOff {
		a.rowOff[i] = l.ZeroBase()
	}
	for v := lo; v < hi; v++ {
		a.rowOff[v-lo+2] = l.RowBase(v)
	}
	return a
}

func ringAccess(r *device.ProjRing, rowOff []int) projAccess {
	valid := r.Valid()
	return layoutAccess(r.Layout, r.RawData(), valid.Lo, valid.Hi, rowOff)
}

// floor32 returns ⌊x⌋ as a float32. The fast path rounds through int32 and
// is exact on |x| ≤ 2³¹ — orders of magnitude beyond any detector
// coordinate the kernels produce; inputs outside that domain (including NaN
// and ±Inf) fall back to math.Floor so the float→int conversion's
// implementation-defined overflow behaviour is never exercised.
func floor32(x float32) float32 {
	if x >= -(1<<31) && x < 1<<31 {
		i := float32(int32(x))
		if i > x {
			i--
		}
		return i
	}
	return float32(math.Floor(float64(x)))
}

// clipSpan intersects the running interval [lower, upper] with c·i ≤ b
// (le) or c·i ≥ b (!le); infeasibility is signalled by lower > upper.
func clipSpan(lower, upper *float64, c, b float64, le bool) {
	switch {
	case c == 0:
		if (le && b < 0) || (!le && b > 0) {
			*lower, *upper = 1, 0 // infeasible
		}
	case (c > 0) == le: // upper bound i ≤ b/c
		if q := b / c; q < *upper {
			*upper = q
		}
	default: // lower bound i ≥ b/c
		if q := b / c; q > *lower {
			*lower = q
		}
	}
}

// Boundaries of the readable window [0,nu) × [lo,hi) in detector pixels,
// in the order every [4]float64 of the span solves uses: x low, x high,
// y low, y high. The margin d = 0.5 px dwarfs the float32 evaluation error
// of the kernel's coordinate arithmetic.
//
// interiorBounds is where a sample's whole 2×2 footprint is resident with
// the margin to spare: x ∈ [d, nu−1−d] keeps iu and iu+1 inside the
// detector width, y ∈ [lo+d, hi−1−d] keeps iv and iv+1 inside the readable
// rows. supportBounds is where a footprint can touch the window at all,
// with the margin widening the kept range: outside x ∈ [−1−d, nu+d],
// y ∈ [lo−1−d, hi+d] the bilinear value is exactly 0.
func (a *projAccess) interiorBounds() [4]float64 {
	const d = 0.5
	return [4]float64{d, float64(a.nu-1) - d, float64(a.lo) + d, float64(a.hi-1) - d}
}

func (a *projAccess) supportBounds() [4]float64 {
	const d = 0.5
	return [4]float64{-1 - d, float64(a.nu) + d, float64(a.lo) - 1 - d, float64(a.hi) + d}
}

// clipCoefs returns the column coefficients of a row's four boundary
// inequalities. The projected coordinates x = (ax·i+xc)/z and
// y = (ay·i+yc)/z with z = az·i+zc are linear fractional in i; while z
// stays positive, x ≥ B multiplies through to (ax − B·az)·i ≥ B·zc − xc.
// The coefficients depend on the projection only, the right-hand sides on
// the row, so a caller sweeping rows computes these once per projection.
func clipCoefs(ax, ay, az float64, bound *[4]float64) [4]float64 {
	return [4]float64{ax - bound[0]*az, ax - bound[1]*az, ay - bound[2]*az, ay - bound[3]*az}
}

// clipRow solves the four boundary inequalities of one row for the
// half-open column range [i0, i1) ⊆ [0, nx) that satisfies them all, or
// (0, 0) when none does. Requires z > 0 across the row. The two y
// boundaries take their own row constant — ycLow is held to the lower one,
// ycHigh to the upper — so that a k-tile's span solve can hold a different
// end slice to each; a single row passes the same value twice. Each
// product is rounded before its subtract, as blockSpans512 rounds it.
func clipRow(coef, bound *[4]float64, xc, ycLow, ycHigh, zc float64, nx int) (int, int) {
	lower, upper := 0.0, float64(nx-1)
	clipSpan(&lower, &upper, coef[0], float64(bound[0]*zc)-xc, false)
	clipSpan(&lower, &upper, coef[1], float64(bound[1]*zc)-xc, true)
	clipSpan(&lower, &upper, coef[2], float64(bound[2]*zc)-ycLow, false)
	clipSpan(&lower, &upper, coef[3], float64(bound[3]*zc)-ycHigh, true)
	i0 := int(math.Ceil(lower))
	i1 := int(math.Floor(upper)) + 1
	if i0 < 0 {
		i0 = 0
	}
	if i1 > nx {
		i1 = nx
	}
	if i0 >= i1 {
		return 0, 0
	}
	return i0, i1
}

// kernelCounters accumulates one worker's sample classification: interior
// (footprint resident in every slice), border (the rest of the evaluated
// columns) and skipped (provably zero contribution, never evaluated). They
// are summed per launch and reported through the device ledger/telemetry —
// never per sample.
type kernelCounters struct {
	interior, border, skipped int64
}

func (c *kernelCounters) add(o kernelCounters) {
	c.interior += o.interior
	c.border += o.border
	c.skipped += o.skipped
}

// launchScratch is a launch's scratch: the projection access's row tables,
// each worker's counters, its row cache and, where the host solves a
// block's spans sixteen projections at a time, its block lanes, and the
// launch its workers run. They live on the heap, and not in a worker
// goroutine's frame, which they would push onto a larger stack. A launch
// takes a set from scratchPool and zeroes what it uses, so a rank that
// launches once per batch allocates them once; the launch's own fields are
// cleared when it returns, so the pool holds no projection or slab.
type launchScratch struct {
	rowOff   []int
	rowIdx32 []int32
	counters []kernelCounters
	caches   []rowCache
	lanes    []blockLanes

	a        projAccess
	mats     []geometry.Mat34x4
	slab     *volume.Volume
	workers  int
	useLanes bool
	wg       sync.WaitGroup
}

var scratchPool = sync.Pool{New: func() any { return new(launchScratch) }}

// resized returns s at length n, reusing its array when it is large
// enough; the elements are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s resized to n zero elements.
func zeroed[T any](s []T, n int) []T {
	s = resized(s, n)
	clear(s)
	return s
}

// accumulateSlab runs the shared inner loop: for every voxel of slab
// (global Z offset slab.Z0, Listing 1's offset_volume_z) it accumulates the
// distance-weighted bilinear samples of all np projections. Slices are
// distributed over the device's worker pool, one goroutine per worker; a
// single worker runs on the calling goroutine. (With two workers, running
// one of them on the caller made a small launch ≈ 17 % slower than giving
// each its own goroutine.) Each worker owns whole k slices so no
// synchronisation is needed on the output, and each worker's per-voxel
// accumulation order is ascending in s whatever the kernel's blocking, so
// the result is independent of the worker count. a's row tables become
// sc's.
func (sc *launchScratch) accumulateSlab(dev *device.Device, a projAccess, mats []geometry.Mat34x4, slab *volume.Volume) error {
	sc.rowOff = a.rowOff
	if len(mats) != a.np {
		return fmt.Errorf("backproject: %d matrices for %d projections", len(mats), a.np)
	}
	updates := int64(slab.Voxels()) * int64(a.np)
	if updates == 0 {
		// Zero-voxel slabs (trailing batches of uneven plans) still count
		// as a launch, but spawn no workers over the empty range.
		dev.RecordKernel(0)
		return nil
	}
	// Dispatch once per launch, to the widest spelling the host runs. The
	// assembly spellings need storage offsets that fit their 32-bit gather
	// indices.
	host := hostArithmetic()
	a.arith = host
	a.rowIdx32 = sc.rowIdx32
	if a.arith != device.ArithmeticScalar && !a.prepareSIMD() {
		a.arith = device.ArithmeticScalar
	}
	sc.rowIdx32 = a.rowIdx32
	a.win = a.newSpanWindow()
	workers := min(dev.WorkerCount(), slab.NZ)
	sc.counters = zeroed(sc.counters, workers)
	sc.caches = zeroed(sc.caches, workers)
	sc.useLanes = host == device.ArithmeticAVX512
	if sc.useLanes {
		sc.lanes = zeroed(sc.lanes, workers)
	}
	sc.a, sc.mats, sc.slab, sc.workers = a, mats, slab, workers
	if workers == 1 {
		sc.work(0)
	} else {
		sc.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer sc.wg.Done()
				sc.work(w)
			}(w)
		}
		sc.wg.Wait()
	}
	sc.a, sc.mats, sc.slab = projAccess{}, nil, nil
	var total kernelCounters
	for w := range sc.counters {
		total.add(sc.counters[w])
	}
	dev.RecordKernel(updates)
	dev.RecordDispatch(a.arith)
	dev.RecordKernelSamples(total.interior, total.border, total.skipped)
	return nil
}

// work runs worker w's share of the launch.
func (sc *launchScratch) work(w int) {
	var l *blockLanes
	if sc.useLanes {
		l = &sc.lanes[w]
	}
	sc.a.accumulateSlices(w, sc.workers, sc.mats, sc.slab, &sc.caches[w], l, &sc.counters[w])
}

// Streaming is the paper's kernel: it back-projects the ring-resident
// sub-projections (all np angles of the rank's share, detector rows limited
// to the slab's ComputeAB range) into the slab. required is the row range
// the slab needs (Equation 4); the call fails fast if the ring does not hold
// it, catching slab-schedule bugs instead of silently reconstructing from
// missing data.
func Streaming(dev *device.Device, ring *device.ProjRing, mats []geometry.Mat34x4, slab *volume.Volume, required geometry.RowRange) error {
	if !required.IsEmpty() {
		valid := ring.Valid()
		if required.Lo < valid.Lo || required.Hi > valid.Hi {
			return fmt.Errorf("backproject: slab needs rows %v but ring holds %v", required, valid)
		}
	}
	sc := scratchPool.Get().(*launchScratch)
	defer scratchPool.Put(sc)
	return sc.accumulateSlab(dev, ringAccess(ring, sc.rowOff), mats, slab)
}

// StreamingKernel is Streaming; its Kernel argument selects nothing. It is
// kept only because the frozen bench/replay.go spells it.
func StreamingKernel(dev *device.Device, ring *device.ProjRing, mats []geometry.Mat34x4, slab *volume.Volume, required geometry.RowRange, _ Kernel) error {
	return Streaming(dev, ring, mats, slab, required)
}

// FLOPPerUpdate is the floating-point work of one voxel×projection update
// as Algorithm 1 states it, used by the roofline analysis (Figure 12): the
// three coordinates, a multiply and an add each (6), the reciprocal and the
// two projected coordinates (3), the distance weight and its product with
// the sample (2), and the contract's bilinear blend — t1 = p00 + eu·(p01−p00),
// t2 likewise, t1 + ev·(t2−t1), a subtract, a multiply and an add each (9).
// The fractional parts and the accumulate are not counted. A k-tile
// computes the z-invariant part once per column for all its slices, and
// where the assembly caches a group's rows it also blends each detector row
// horizontally once for the tile rather than twice per slice, so the kernel
// retires fewer per update than a tile of one slice. The accumulate's add
// is still one per update; what the 16-lane spelling saves by keeping a
// block's running sums in registers is the volume's load and store per
// projection, which no count here includes. The value is Algorithm 1's,
// kept because the benchmark's roofline rows read it.
const FLOPPerUpdate = 20
