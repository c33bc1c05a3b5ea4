package backproject

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"distfdk/internal/alloctest"
	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func testSystem() *geometry.System {
	return &geometry.System{
		DSO: 250, DSD: 350,
		NU: 48, NV: 40, DU: 0.5, DV: 0.5,
		NP: 16,
		NX: 32, NY: 24, NZ: 24, DX: 0.5, DY: 0.5, DZ: 0.5,
	}
}

func kernelMats(sys *geometry.System) []geometry.Mat34x4 {
	ms := sys.Matrices()
	out := make([]geometry.Mat34x4, len(ms))
	for i, m := range ms {
		out[i] = m.ToKernel()
	}
	return out
}

func randomStack(sys *geometry.System, seed int64) *projection.Stack {
	st, _ := projection.NewStack(sys.NU, sys.NP, sys.NV)
	rng := rand.New(rand.NewSource(seed))
	for i := range st.Data {
		st.Data[i] = float32(rng.NormFloat64())
	}
	return st
}

// forRecurrenceKernels runs f once under the default dispatch (the widest
// assembly the host has: testSystem's rows are wide enough for the 16-lane
// one), as subtest "recurrence"; once with AVX-512 masked
// off, as subtest "avx2", so the 8-lane assembly stays covered on AVX-512
// hosts (on any other host the default dispatch is that run, and the
// subtest says it is skipped); and once with AVX2 masked off, as subtest
// "scalar", so the Go spelling does.
func forRecurrenceKernels(t *testing.T, f func(t *testing.T)) {
	t.Run("recurrence", f)
	for _, arith := range []device.Arithmetic{device.ArithmeticAVX2, device.ArithmeticScalar} {
		t.Run(arith.String(), func(t *testing.T) {
			if arith == device.ArithmeticAVX2 && !cpufeat.AVX512() {
				t.Skip("no AVX-512 on this host: the default dispatch ran its widest spelling")
			}
			defer dispatchOnly(arith)()
			f(t)
		})
	}
}

// The frozen bench/replay.go launches through StreamingKernel with
// KernelRecurrence, the zero Kernel: that must be Streaming, byte for byte.
func TestZeroKernelIsRecurrence(t *testing.T) {
	var zero Kernel
	if zero != KernelRecurrence {
		t.Fatalf("the zero Kernel is %d, KernelRecurrence %d", zero, KernelRecurrence)
	}
	sys := testSystem()
	stack := randomStack(sys, 8)
	dev := device.New("zero", 0, 2)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	if err := ring.LoadRows(stack, stack.Rows()); err != nil {
		t.Fatal(err)
	}
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Streaming(dev, ring, kernelMats(sys), want, stack.Rows()); err != nil {
		t.Fatal(err)
	}
	if err := StreamingKernel(dev, ring, kernelMats(sys), got, stack.Rows(), zero); err != nil {
		t.Fatal(err)
	}
	assertSameVolume(t, "Streaming", want, got)
}

// A launch takes its scratch from scratchPool: a warm launch on the same
// ring makes no object on one worker — the row tables, the worker scratch
// and the launch's own state all come from the pool, and the one worker
// runs on the caller — and at most two per worker, its goroutine's, on
// more. A launch that finds the pool empty allocates at least the
// scratch's slices more.
func TestLaunchReusesScratch(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race runtime drops a share of what sync.Pool is given")
	}
	sys := testSystem()
	stack := randomStack(sys, 9)
	mats := kernelMats(sys)
	for _, workers := range []int{1, 4} {
		dev := device.New("scratch", 0, workers)
		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
		if err != nil {
			t.Fatal(err)
		}
		defer ring.Close()
		if err := ring.LoadRows(stack, stack.Rows()); err != nil {
			t.Fatal(err)
		}
		vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		launch := func() {
			if err := Streaming(dev, ring, mats, vol, stack.Rows()); err != nil {
				t.Fatal(err)
			}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
		launch()
		warm := testing.AllocsPerRun(10, launch)
		cold := testing.AllocsPerRun(10, func() {
			scratchPool = sync.Pool{New: scratchPool.New}
			launch()
		})
		if bound := 2 * float64(workers); workers == 1 && warm > 0 || warm > bound {
			t.Fatalf("%d workers: a warm launch allocates %v objects, more than its goroutines' %v", workers, warm, bound)
		}
		slices := 4.0 // row tables, counters, row caches
		if hostArithmetic() == device.ArithmeticAVX512 {
			slices++ // block lanes
		}
		if cold-warm < slices {
			t.Fatalf("%d workers: a launch allocates %v objects with the pool warm and %v with it empty: the %v scratch slices are made again", workers, warm, cold, slices)
		}
	}
}

func TestFloor32(t *testing.T) {
	cases := map[float32]float32{0: 0, 0.9: 0, 1.0: 1, 1.5: 1, -0.1: -1, -1.0: -1, -1.5: -2, 7.999: 7}
	for in, want := range cases {
		if got := floor32(in); got != want {
			t.Errorf("floor32(%g) = %g, want %g", in, got, want)
		}
		if float64(floor32(in)) != math.Floor(float64(in)) {
			t.Errorf("floor32(%g) disagrees with math.Floor", in)
		}
	}
}

// floor32 must agree with math.Floor over its whole domain, including
// values far outside int32 range where the int32 fast path cannot be used,
// and must stay total on non-finite inputs.
func TestFloor32OutsideInt32Range(t *testing.T) {
	exts := []float32{
		-2.5e9, 2.5e9, 1e12, -1e12, 3.4e38, -3.4e38,
		2147483648, -2147483648, -2147483904, 2147483904,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		1e9 + 0.5, -1e9 - 0.5, 16777215.5, -16777215.5,
	}
	for _, in := range exts {
		got := floor32(in)
		want := float32(math.Floor(float64(in)))
		if got != want {
			t.Errorf("floor32(%g) = %g, want %g", in, got, want)
		}
	}
	if got := floor32(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("floor32(NaN) = %g, want NaN", got)
	}
}

func TestSubPixelBilinear(t *testing.T) {
	// 2 rows × 1 projection × 2 columns with known corners.
	a := projAccess{
		data: []float32{1, 2, 3, 4}, // row0: [1 2], row1: [3 4]
		nu:   2, np: 1, lo: 0, hi: 2,
	}
	a.buildRowTable()
	// Exact corners.
	if got := a.subPixel(0, 0, 0); got != 1 {
		t.Fatalf("corner (0,0) = %g", got)
	}
	// Midpoint of the cell: mean of all four.
	if got := a.subPixel(0.5, 0.5, 0); math.Abs(float64(got)-2.5) > 1e-6 {
		t.Fatalf("cell centre = %g, want 2.5", got)
	}
	// Pure u interpolation.
	if got := a.subPixel(0.25, 0, 0); math.Abs(float64(got)-1.25) > 1e-6 {
		t.Fatalf("u interp = %g, want 1.25", got)
	}
	// Pure v interpolation.
	if got := a.subPixel(0, 0.75, 0); math.Abs(float64(got)-2.5) > 1e-6 {
		t.Fatalf("v interp = %g, want 2.5", got)
	}
}

func TestSubPixelBorderIsZero(t *testing.T) {
	a := projAccess{
		data: []float32{5, 5, 5, 5},
		nu:   2, np: 1, lo: 0, hi: 2,
	}
	a.buildRowTable()
	// Fully outside: zero.
	for _, xy := range [][2]float32{{-3, 0}, {5, 0}, {0, -3}, {0, 5}} {
		if got := a.subPixel(xy[0], xy[1], 0); got != 0 {
			t.Fatalf("sample at (%g,%g) = %g, want 0", xy[0], xy[1], got)
		}
	}
	// Half outside: linear fade toward the border (texture border=0).
	got := a.subPixel(-0.5, 0, 0)
	if math.Abs(float64(got)-2.5) > 1e-6 {
		t.Fatalf("half-out sample = %g, want 2.5", got)
	}
	// Row range below lo is not readable even if slots exist.
	b := projAccess{data: []float32{5, 5, 5, 5}, nu: 2, np: 1, lo: 1, hi: 2}
	b.layRows(2, nil)
	if got := b.subPixel(0, 0, 0); math.Abs(float64(got)-2.5) > 1e-6 {
		// row 0 invalid (0), row 1 valid (5); ev=0 → t1 weight 1 → 0?
		// y=0 ⇒ iv=0 invalid, iv+1=1 valid but ev=0 ⇒ contribution 0.
		if got != 0 {
			t.Fatalf("non-resident row sample = %g", got)
		}
	}
}

// The kernel must reproduce the literal Algorithm 1 reference — the oracle —
// bit for bit under both dispatches, and count one launch whose sample
// classes partition its updates.
func TestBatchMatchesNaiveAlgorithm1(t *testing.T) {
	sys := testSystem()
	sys.SigmaU, sys.SigmaV, sys.SigmaCOR = 1.25, -0.5, 0.3
	stack := randomStack(sys, 1)
	mats := kernelMats(sys)
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	denseAccess(stack).reference(mats, want)

	forRecurrenceKernels(t, func(t *testing.T) {
		dev := device.New("test", 0, 3)
		got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, stack, mats, got); err != nil {
			t.Fatal(err)
		}
		assertSameVolume(t, "the oracle", want, got)
		l := dev.Snapshot()
		if l.KernelLaunches != 1 || l.VoxelUpdates != int64(got.Voxels())*int64(sys.NP) {
			t.Fatalf("kernel ledger wrong: %+v", l)
		}
		if l.InteriorSamples+l.BorderSamples+l.SkippedSamples != l.VoxelUpdates {
			t.Fatalf("sample classification does not partition the updates: %+v", l)
		}
	})
}

// assertSameVolume fails unless got holds want's bytes, voxel for voxel.
func assertSameVolume(t *testing.T, name string, want, got *volume.Volume) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("voxel %d: kernel %g != %s %g", i, got.Data[i], name, want.Data[i])
		}
	}
}

// The decomposition-correctness anchor: a streaming slab-by-slab
// reconstruction through the ring buffer must equal the monolithic batch
// reconstruction bit-for-bit.
func TestStreamingEqualsBatch(t *testing.T) {
	forRecurrenceKernels(t, testStreamingEqualsBatch)
}

func testStreamingEqualsBatch(t *testing.T) {
	sys := testSystem()
	sys.SigmaV = 0.25
	stack := randomStack(sys, 2)
	mats := kernelMats(sys)

	batchDev := device.New("batch", 0, 2)
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(batchDev, stack, mats, want); err != nil {
		t.Fatal(err)
	}

	const nb = 6
	ranges := sys.SlabRows(nb)
	h := 0
	for _, r := range ranges {
		if r.Len() > h {
			h = r.Len()
		}
	}
	dev := device.New("stream", 0, 2)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, h)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()

	got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	prev := geometry.RowRange{}
	for si, need := range ranges {
		z0 := si * nb
		nz := min(nb, sys.NZ-z0)
		ring.Release(need.Lo)
		if err := ring.LoadRows(stack, geometry.DifferentialRows(prev, need)); err != nil {
			t.Fatalf("slab %d: %v", si, err)
		}
		slab, _ := volume.NewSlab(sys.NX, sys.NY, nz, z0)
		if err := Streaming(dev, ring, mats, slab, need); err != nil {
			t.Fatalf("slab %d: %v", si, err)
		}
		if err := got.CopySlabFrom(slab); err != nil {
			t.Fatal(err)
		}
		prev = need
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("voxel %d: streaming %g != batch %g", i, got.Data[i], want.Data[i])
		}
	}
	// The streaming path must not have shipped more than the union of
	// row ranges once.
	union := geometry.RowRange{}
	for _, r := range ranges {
		union = union.Union(r)
	}
	rowBytes := int64(sys.NU) * int64(sys.NP) * 4
	if l := dev.Snapshot(); l.H2DBytes != rowBytes*int64(union.Len()) {
		t.Fatalf("streaming H2D = %d bytes, want %d (each row once)", l.H2DBytes, rowBytes*int64(union.Len()))
	}
}

// Splitting the angle axis across "ranks" and summing the partial volumes
// must equal the full reconstruction up to float32 summation order; with
// one partial it is exact, with several the error is bounded by rounding.
func TestAngleSplitPartialSumsMatch(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 3)
	mats := kernelMats(sys)
	dev := device.New("test", 0, 2)

	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(dev, stack, mats, want); err != nil {
		t.Fatal(err)
	}

	const nr = 4
	parts, err := projection.PartitionNP(sys.NP, nr)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	for _, pr := range parts {
		sub, err := stack.ExtractProjections(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		partial, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, sub, mats[pr[0]:pr[1]], partial); err != nil {
			t.Fatal(err)
		}
		if err := sum.Add(partial); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := volume.Compare(want, sum)
	if err != nil {
		t.Fatal(err)
	}
	// float32 reassociation tolerance.
	if stats.RMSE > 1e-6 || stats.MaxAbs > 1e-5 {
		t.Fatalf("angle-split sum differs: %+v", stats)
	}
}

func TestStreamingRequiresResidentRows(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 4)
	dev := device.New("test", 0, 1)
	ring, _ := device.NewProjRing(dev, sys.NU, sys.NP, 8)
	if err := ring.LoadRows(stack, geometry.RowRange{Lo: 0, Hi: 8}); err != nil {
		t.Fatal(err)
	}
	slab, _ := volume.NewSlab(sys.NX, sys.NY, 4, 0)
	err := Streaming(dev, ring, kernelMats(sys), slab, geometry.RowRange{Lo: 4, Hi: 12})
	if err == nil {
		t.Fatal("expected missing-rows error")
	}
}

func TestMatrixCountMismatch(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 5)
	dev := device.New("test", 0, 1)
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(dev, stack, kernelMats(sys)[:3], vol); err == nil {
		t.Fatal("expected matrix-count error")
	}
}

// Physical sanity: back-projecting the projections of a centred point blob
// must concentrate intensity at the blob's voxel.
func TestBackprojectionLocalisesPointSource(t *testing.T) {
	sys := testSystem()
	const scale = 5.0
	i0, j0, k0 := 15, 8, 13
	x, y, z := sys.VoxelWorld(i0, j0, k0)
	ph := &phantom.Phantom{Name: "pt", Ellipsoids: []phantom.Ellipsoid{{
		CX: x / scale, CY: y / scale, CZ: z / scale, A: 0.06, B: 0.06, C: 0.06, Rho: 1,
	}}}
	stack, err := forward.Project(sys, ph, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New("test", 0, 2)
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(dev, stack, kernelMats(sys), vol); err != nil {
		t.Fatal(err)
	}
	// Without filtering the point spreads, but the maximum must sit on
	// (or adjacent to) the true position.
	var bi, bj, bk int
	var best float32 = -1
	for k := 0; k < sys.NZ; k++ {
		for j := 0; j < sys.NY; j++ {
			for i := 0; i < sys.NX; i++ {
				if v := vol.At(i, j, k); v > best {
					best, bi, bj, bk = v, i, j, k
				}
			}
		}
	}
	if abs(bi-i0) > 1 || abs(bj-j0) > 1 || abs(bk-k0) > 1 {
		t.Fatalf("peak at (%d,%d,%d), want near (%d,%d,%d)", bi, bj, bk, i0, j0, k0)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkBatchKernel times one launch over the whole volume from a ring
// as tall as the detector, loaded before the clock starts: the kernel, not
// the upload.
func BenchmarkBatchKernel(b *testing.B) {
	sys := testSystem()
	stack := randomStack(sys, 6)
	mats := kernelMats(sys)
	dev := device.New("bench", 0, 0)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
	if err != nil {
		b.Fatal(err)
	}
	defer ring.Close()
	if err := ring.LoadRows(stack, stack.Rows()); err != nil {
		b.Fatal(err)
	}
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	updates := int64(vol.Voxels()) * int64(sys.NP)
	b.SetBytes(updates * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vol.Zero()
		if err := Streaming(dev, ring, mats, vol, stack.Rows()); err != nil {
			b.Fatal(err)
		}
	}
}
