// Package backproject implements the paper's primary contribution: the
// streaming cone-beam back-projection kernel of Listing 1, which consumes
// sub-projections decomposed along both the detector-row (Nv) and angle
// (Np) axes from a ring-buffered device store, plus the conventional
// batch kernel (RTK-style, Algorithm 1) used as the paper's baseline.
//
// Two kernels are available (see Kernel):
//
//   - KernelRecurrence (the zero value, so the default of every caller) is
//     the fast kernel. The homogeneous coordinates (u, v, w) of an output
//     row are affine in the column index, so the three per-sample dot
//     products are replaced by incremental lane additions, eight columns
//     at a time, re-anchored every reanchorPeriod columns to bound float32
//     drift. The row is clipped to its detector support (columns whose 2×2
//     footprint lies entirely outside the readable window contribute
//     exactly +0 and are skipped), the (k, j, s) loops are blocked so a
//     small window of detector rows stays cache-resident across a voxel
//     sweep, and a (row, projection) pair visits the slices of a k-tile
//     innermost, where one exact reciprocal per column serves them all. It
//     has one arithmetic (the coordinate contract in simd.go) and two
//     spellings of it, AVX2 assembly and Go, chosen per launch from what
//     the host can run; the bytes do not depend on the choice.
//
//   - KernelExact is the oracle: per detector row the i-loop is split into
//     a precomputed interior span where the whole 2×2 bilinear footprint
//     is guaranteed resident (branch-free inlined loads through a
//     precomputed row-offset table) with the branchy subPixel border path
//     only on the clipped edges. Its float32 arithmetic is a literal
//     transcription of Algorithm 1, bit-identical to the naive reference,
//     and the parity gates measure the fast kernel against it. No driver
//     or command line selects it.
//
// The computed contribution of column i is a pure function of (i, row
// constants) shared by the unguarded, guarded and residency-predicate
// paths, so a slab-decomposed streaming reconstruction stays bit-identical
// to a monolithic batch reconstruction over the same projections — the
// equivalence the paper validates against RTK with an RMSE threshold, made
// exact here because we control both implementations. Between the two
// kernels the results differ only by bounded float32 drift; that parity is
// tolerance-gated (see the property tests and experiments.TestKernelParity).
package backproject

import (
	"fmt"
	"math"
	"sync"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// Kernel selects the inner-loop arithmetic of the back-projection kernels.
type Kernel int

const (
	// KernelRecurrence is the default: the cache-blocked recurrence
	// restructuring (incremental coordinate updates with fixed-column
	// re-anchoring, detector-support clipping, k-tiles) under the coordinate
	// contract of simd.go. The ledger records which spelling a launch
	// dispatched to.
	KernelRecurrence Kernel = iota
	// KernelExact is direct per-sample dot-product evaluation, bit-identical
	// to the literal Algorithm 1 reference: the oracle the fast kernel's
	// parity gate measures against.
	KernelExact
)

func (k Kernel) String() string {
	if k == KernelExact {
		return "exact"
	}
	return "recurrence"
}

// projAccess provides the kernel's view of projection storage. It unifies
// the ring-buffered device store (slot = v mod H, Listing 1's devPixel) and
// a linear stack (slot = v − V0) behind one addressing rule so the two
// kernels share their sampling code: both are a device.Layout, and the
// sample (v, s, u) lives at rowOff[v−lo+2] + s·sStride + u. rowOff caches
// the storage offset of every readable row, hoisting the slot arithmetic
// out of the per-sample path, between two entries on either side that name
// the layout's zero slot: what the rows just outside [lo,hi) read as. With
// the layout's zero apron around every run of samples, the texture border
// of Listing 1 is data: rows lo−2..hi+1 and columns −2..nu+1 are loadable,
// and are +0 wherever the window ends.
type projAccess struct {
	data    []float32
	nu, np  int
	sStride int   // storage distance between projections of one row
	lo, hi  int   // global rows readable [lo, hi)
	rowOff  []int // rowOff[v-lo+2] = storage offset of global row v
	// rowIdx32 is rowOff narrowed to int32 for the AVX2 gather
	// instructions; built by prepareSIMD when a launch dispatches to them.
	rowIdx32 []int32
	// asm says the launch runs the assembly spelling of the fast kernel,
	// not the Go one; accumulateSlab decides it once per launch.
	asm bool
	// win is the readable window as the fast kernel's span decisions use
	// it; accumulateSlab derives it once per launch.
	win spanWindow
}

// layoutAccess addresses the rows [lo,hi) of a store laid out by l, whose
// slot 0 holds global row v0 (0 for a ring: its slots are v mod H).
func layoutAccess(l device.Layout, data []float32, lo, hi, v0 int) projAccess {
	a := projAccess{data: data, nu: l.NU, np: l.NP, sStride: l.ProjStride(), lo: lo, hi: hi}
	a.rowOff = make([]int, hi-lo+4)
	for i := range a.rowOff {
		a.rowOff[i] = l.ZeroBase()
	}
	for v := lo; v < hi; v++ {
		a.rowOff[v-lo+2] = l.RowBase(v - v0)
	}
	return a
}

func ringAccess(r *device.ProjRing) projAccess {
	valid := r.Valid()
	return layoutAccess(r.Layout, r.RawData(), valid.Lo, valid.Hi, 0)
}

// stackAccess re-lays the stack into the layout the ring stores, once per
// launch: host memory, like the stack itself, so no device budget moves.
func stackAccess(s *projection.Stack) projAccess {
	l := device.Layout{NU: s.NU, NP: s.NP, H: s.NV}
	data := make([]float32, l.Len())
	for v := 0; v < s.NV; v++ {
		l.Store(data, v, s.Data[v*s.NP*s.NU:])
	}
	return layoutAccess(l, data, s.V0, s.V0+s.NV, s.V0)
}

// subPixel is the bilinear interpolation of Algorithm 1 / Listing 1's
// devSubPixel: it fetches the four neighbours of (x, y) in projection s and
// blends them with the sub-pixel fractions. Samples outside the readable
// row range or the detector width contribute zero, which is the CUDA
// texture border behaviour the original kernel relies on.
func (a *projAccess) subPixel(x, y float32, s int) float32 {
	iu := int(floor32(x))
	iv := int(floor32(y))
	eu := x - float32(iu)
	ev := y - float32(iv)

	if iu >= 0 && iu+1 < a.nu && iv >= a.lo && iv+1 < a.hi {
		// Fast path: the whole 2×2 footprint is resident.
		r0 := a.rowOff[iv-a.lo+2] + s*a.sStride + iu
		r1 := a.rowOff[iv-a.lo+3] + s*a.sStride + iu
		t1 := a.data[r0]*(1-eu) + a.data[r0+1]*eu
		t2 := a.data[r1]*(1-eu) + a.data[r1+1]*eu
		return t1*(1-ev) + t2*ev
	}
	// Border path: gather each neighbour individually.
	get := func(v, u int) float32 {
		if u < 0 || u >= a.nu || v < a.lo || v >= a.hi {
			return 0
		}
		return a.data[a.rowOff[v-a.lo+2]+s*a.sStride+u]
	}
	t1 := get(iv, iu)*(1-eu) + get(iv, iu+1)*eu
	t2 := get(iv+1, iu)*(1-eu) + get(iv+1, iu+1)*eu
	return t1*(1-ev) + t2*ev
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
// y low, y high. The margin d = 0.5 px dwarfs both the float32 evaluation
// error of the kernels' coordinate arithmetic and the recurrence kernels'
// bounded drift.
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
// end slice to each; a single row passes the same value twice.
func clipRow(coef, bound *[4]float64, xc, ycLow, ycHigh, zc float64, nx int) (int, int) {
	lower, upper := 0.0, float64(nx-1)
	clipSpan(&lower, &upper, coef[0], bound[0]*zc-xc, false)
	clipSpan(&lower, &upper, coef[1], bound[1]*zc-xc, true)
	clipSpan(&lower, &upper, coef[2], bound[2]*zc-ycLow, false)
	clipSpan(&lower, &upper, coef[3], bound[3]*zc-ycHigh, true)
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

// interiorSpan returns the half-open column range [i0, i1) of a detector
// row whose bilinear footprints are guaranteed fully resident, so the inner
// loop may sample without border checks: clipRow over interiorBounds,
// solved in float64, so every column inside the span satisfies the exact
// float32 residency predicate. Rows where z could cross zero get an empty
// span (fully border-handled).
func (a *projAccess) interiorSpan(ax, xc, ay, yc, az, zc float64, nx int) (int, int) {
	if zc <= 0 || az*float64(nx-1)+zc <= 0 {
		return 0, 0
	}
	bound := a.interiorBounds()
	coef := clipCoefs(ax, ay, az, &bound)
	return clipRow(&coef, &bound, xc, yc, yc, zc, nx)
}

// interiorResident evaluates, with the exact kernel's float32 arithmetic,
// whether column i's 2×2 footprint is fully resident — the same predicate
// subPixel's fast path tests. The exact kernel verifies the analytic span's
// endpoints with it, making the branch-free interior loop sound even if the
// float64 span solve were off by a sample.
func (a *projAccess) interiorResident(i int, ax, xc, ay, yc, az, zc float32) bool {
	fi := float32(i)
	rz := 1 / (az*fi + zc)
	x := (ax*fi + xc) * rz
	y := (ay*fi + yc) * rz
	iu := int(floor32(x))
	iv := int(floor32(y))
	return iu >= 0 && iu+1 < a.nu && iv >= a.lo && iv+1 < a.hi
}

// kernelCounters accumulates one worker's sample classification: interior
// (branch-free fast path), border (subPixel with partial footprints),
// skipped (provably zero contribution, never evaluated) and recurrence
// re-anchor events. They are summed per launch and reported through the
// device ledger/telemetry — never per sample.
type kernelCounters struct {
	interior, border, skipped, reanchors int64
	// Lane accounting of the fast kernel's interior columns: complete
	// 8-lane groups vs columns executed under a partial lane mask (the
	// masked tail). Zero under the exact kernel.
	simdGroups, simdTail int64
}

func (c *kernelCounters) add(o kernelCounters) {
	c.interior += o.interior
	c.border += o.border
	c.skipped += o.skipped
	c.reanchors += o.reanchors
	c.simdGroups += o.simdGroups
	c.simdTail += o.simdTail
}

// accumulateSlab runs the shared inner loop: for every voxel of slab
// (global Z offset slab.Z0, Listing 1's offset_volume_z) it accumulates the
// distance-weighted bilinear samples of all np projections. Slices are
// distributed over the device's worker pool; each worker owns whole k
// slices so no synchronisation is needed on the output, and each worker's
// per-voxel accumulation order is ascending in s whatever the kernel's
// blocking, so the result is independent of the worker count.
func accumulateSlab(dev *device.Device, a projAccess, mats []geometry.Mat34x4, slab *volume.Volume, kernel Kernel) error {
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
	// Dispatch once per launch. The assembly spelling needs AVX2 and
	// storage offsets that fit its 32-bit gather indices.
	arith := device.ArithmeticScalar
	switch {
	case kernel == KernelExact:
		arith = device.ArithmeticExact
	case simdAvailable() && a.prepareSIMD():
		arith = device.ArithmeticAVX2
	}
	a.asm = arith == device.ArithmeticAVX2
	a.win = a.newSpanWindow()
	workers := dev.WorkerCount()
	if workers > slab.NZ {
		workers = slab.NZ
	}
	counters := make([]kernelCounters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if arith == device.ArithmeticExact {
				a.accumulateSlicesExact(w, workers, mats, slab, &counters[w])
			} else {
				a.accumulateSlicesRec(w, workers, mats, slab, &counters[w])
			}
		}(w)
	}
	wg.Wait()
	var total kernelCounters
	for w := range counters {
		total.add(counters[w])
	}
	dev.RecordKernel(updates)
	dev.RecordDispatch(arith)
	dev.RecordKernelSamples(total.interior, total.border, total.skipped, total.reanchors)
	if total.simdGroups != 0 || total.simdTail != 0 {
		dev.RecordKernelVector(total.simdGroups, total.simdTail)
	}
	return nil
}

// accumulateSlicesExact back-projects the k slices owned by worker w with
// the PR-1 arithmetic. Per detector row (fixed j, k, s) the i-loop runs in
// three pieces: a clipped left border through subPixel, the branch-free
// interior span, and a clipped right border. The three float32 dot products
// of Equation 8 are reduced to one multiply-add each by hoisting their
// per-row-constant terms; the row-offset table replaces per-sample slot
// arithmetic.
func (a *projAccess) accumulateSlicesExact(w, workers int, mats []geometry.Mat34x4, slab *volume.Volume, ctr *kernelCounters) {
	data := a.data
	rowOff := a.rowOff[2:]
	lo := a.lo
	nx := slab.NX
	for k := w; k < slab.NZ; k += workers {
		kf := float32(slab.Z0 + k) // K = k + offset_volume_z
		for j := 0; j < slab.NY; j++ {
			jf := float32(j)
			out := slab.Data[(k*slab.NY+j)*slab.NX : (k*slab.NY+j+1)*slab.NX]
			for s := 0; s < a.np; s++ {
				m := &mats[s]
				// Equation 8 with the j- and k-terms of each dot
				// product folded into one per-row constant; the same
				// left-to-right float32 evaluation on every path keeps
				// decomposed and monolithic runs bit-identical.
				ax, ay, az := m.R0[0], m.R1[0], m.R2[0]
				xc := m.R0[1]*jf + m.R0[2]*kf + m.R0[3]
				yc := m.R1[1]*jf + m.R1[2]*kf + m.R1[3]
				zc := m.R2[1]*jf + m.R2[2]*kf + m.R2[3]
				i0, i1 := a.interiorSpan(float64(ax), float64(xc), float64(ay), float64(yc), float64(az), float64(zc), nx)
				for i0 < i1 && !a.interiorResident(i0, ax, xc, ay, yc, az, zc) {
					i0++
				}
				for i0 < i1 && !a.interiorResident(i1-1, ax, xc, ay, yc, az, zc) {
					i1--
				}
				sBase := s * a.sStride
				// One reciprocal replaces the three per-sample divides
				// (x/z, y/z, 1/z²); every path — border, interior,
				// residency predicate, and the test reference — shares
				// the same rounding.
				for i := 0; i < i0; i++ {
					fi := float32(i)
					rz := 1 / (az*fi + zc)
					x := (ax*fi + xc) * rz
					y := (ay*fi + yc) * rz
					out[i] += rz * rz * a.subPixel(x, y, s)
				}
				for i := i0; i < i1; i++ {
					fi := float32(i)
					rz := 1 / (az*fi + zc)
					x := (ax*fi + xc) * rz
					y := (ay*fi + yc) * rz
					// Residency is guaranteed, so x, y ≥ 0 and plain
					// truncation is floor — same values subPixel's fast
					// path would compute, minus its branches.
					iu := int(x)
					iv := int(y)
					eu := x - float32(iu)
					ev := y - float32(iv)
					r0 := rowOff[iv-lo] + sBase + iu
					r1 := rowOff[iv+1-lo] + sBase + iu
					t1 := data[r0]*(1-eu) + data[r0+1]*eu
					t2 := data[r1]*(1-eu) + data[r1+1]*eu
					out[i] += rz * rz * (t1*(1-ev) + t2*ev)
				}
				for i := i1; i < nx; i++ {
					fi := float32(i)
					rz := 1 / (az*fi + zc)
					x := (ax*fi + xc) * rz
					y := (ay*fi + yc) * rz
					out[i] += rz * rz * a.subPixel(x, y, s)
				}
				ctr.interior += int64(i1 - i0)
				ctr.border += int64(nx - (i1 - i0))
			}
		}
	}
}

// Streaming is the paper's kernel: it back-projects the ring-resident
// sub-projections (all np angles of the rank's share, detector rows limited
// to the slab's ComputeAB range) into the slab with the default kernel.
// required is the row range the slab needs (Equation 4); the call fails
// fast if the ring does not hold it, catching slab-schedule bugs instead of
// silently reconstructing from missing data.
func Streaming(dev *device.Device, ring *device.ProjRing, mats []geometry.Mat34x4, slab *volume.Volume, required geometry.RowRange) error {
	return StreamingKernel(dev, ring, mats, slab, required, KernelRecurrence)
}

// StreamingKernel is Streaming with an explicit kernel selection.
func StreamingKernel(dev *device.Device, ring *device.ProjRing, mats []geometry.Mat34x4, slab *volume.Volume, required geometry.RowRange, kernel Kernel) error {
	if !required.IsEmpty() {
		valid := ring.Valid()
		if required.Lo < valid.Lo || required.Hi > valid.Hi {
			return fmt.Errorf("backproject: slab needs rows %v but ring holds %v", required, valid)
		}
	}
	return accumulateSlab(dev, ringAccess(ring), mats, slab, kernel)
}

// Batch is the conventional voxel-driven kernel of Algorithm 1 as shipped
// by RTK: the projections (full detector height) live contiguously in
// device memory and the whole target volume is updated in one launch,
// with the default kernel. It is the reference for the kernel-parity
// comparison (Table 5's GUPS columns) and the building block of the
// batch-decomposition baseline.
func Batch(dev *device.Device, stack *projection.Stack, mats []geometry.Mat34x4, vol *volume.Volume) error {
	return BatchKernel(dev, stack, mats, vol, KernelRecurrence)
}

// BatchKernel is Batch with an explicit kernel selection.
func BatchKernel(dev *device.Device, stack *projection.Stack, mats []geometry.Mat34x4, vol *volume.Volume, kernel Kernel) error {
	return accumulateSlab(dev, stackAccess(stack), mats, vol, kernel)
}

// FLOPPerUpdate is the floating-point work of one voxel×projection update
// in the restructured kernel above, used by the roofline analysis
// (Figure 12): one multiply-add per hoisted dot product with the shared
// reciprocal folded in (8), the distance weight (2), and the bilinear blend
// (10).
const FLOPPerUpdate = 20
