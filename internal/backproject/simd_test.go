package backproject

import (
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// simdLaneCounts must classify every interior column exactly once:
// full·8 + tail == span width, with groups aligned to absolute 8-column
// boundaries (so a 9-wide span straddling a boundary is all tail unless it
// covers a full aligned group).
func TestSIMDLaneCounts(t *testing.T) {
	cases := []struct {
		f0, f1     int
		full, tail int64
	}{
		{0, 0, 0, 0},
		{0, 8, 1, 0},
		{0, 16, 2, 0},
		{1, 8, 0, 7},
		{0, 7, 0, 7},
		{3, 19, 1, 8},  // tail 3..7 (5) + full 8..15 + tail 16..18 (3)
		{8, 40, 4, 0},  // aligned either side
		{5, 11, 0, 6},  // straddles one boundary, no full group
		{0, 33, 4, 1},  // 4 full groups + 1 tail column
		{31, 33, 0, 2}, // straddles a group boundary
	}
	for _, c := range cases {
		full, tail := simdLaneCounts(c.f0, c.f1)
		if full != c.full || tail != c.tail {
			t.Errorf("simdLaneCounts(%d,%d) = (%d,%d), want (%d,%d)",
				c.f0, c.f1, full, tail, c.full, c.tail)
		}
		if full*simdLanes+tail != int64(c.f1-c.f0) && c.f1 > c.f0 {
			t.Errorf("simdLaneCounts(%d,%d) does not partition the span", c.f0, c.f1)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		f0 := rng.Intn(200)
		f1 := f0 + rng.Intn(100)
		full, tail := simdLaneCounts(f0, f1)
		if full*simdLanes+tail != int64(f1-f0) {
			t.Fatalf("simdLaneCounts(%d,%d) = (%d,%d): %d columns unaccounted",
				f0, f1, full, tail, int64(f1-f0)-full*simdLanes-tail)
		}
	}
}

// Both spellings of a span launch — the assembly where the host runs it, and
// the Go one — must produce the oracle's accumulations bit for bit on
// resident columns: the guards only decide whether a load happens, never
// its value. This is the bit-identity the decomposition invariance rests
// on: a column can be classified interior in one slab/window decomposition
// and border in another, and both bodies must agree to the last bit.
// Exercises the whole surface of each: masked head/tail groups (all
// sub-span widths, including 1..31), paired and guarded loads, and the
// divide.
func TestSIMDSpanMatchesGuardedEmulation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nx = 160
	for trial := 0; trial < 60; trial++ {
		a := projAccess{nu: 200, np: 1, lo: 0, hi: 190}
		a.data = make([]float32, a.nu*(a.hi-a.lo))
		for i := range a.data {
			a.data[i] = float32(rng.NormFloat64())
		}
		a.buildRowTable()
		if !a.prepareSIMD() {
			t.Fatal("prepareSIMD refused a small buffer")
		}
		// Row constants mapping columns [0,nx) well inside the detector:
		// x spans ≈ [2, 190], y ≈ [2, 180], w ≈ 1 ± 0.1 (so the reciprocal
		// varies lane to lane).
		az := float32((rng.Float64() - 0.5) * 0.001)
		zc := float32(1 + rng.Float64()*0.2)
		ax := float32(1.1+rng.Float64()*0.05) * zc
		xc := float32(2+rng.Float64()*3) * zc
		ay := float32(1.05+rng.Float64()*0.05) * zc
		yc := float32(2+rng.Float64()*3) * zc
		// Verify every column resident under the kernel's arithmetic; this
		// also mirrors the predicate soundness the unguarded body relies on.
		for i := 0; i < nx; i++ {
			if !a.interiorResidentSIMD(i, ax, ay, az, xc, yc, zc) {
				t.Fatalf("trial %d: column %d not resident under test geometry", trial, i)
			}
		}
		spans := [][2]int{{0, nx}}
		for k := 1; k < 32; k++ {
			s0 := rng.Intn(nx - k)
			spans = append(spans, [2]int{s0, s0 + k})
		}
		for _, sp := range spans {
			want := make([]float32, nx)
			a.perColumn(want, 0, sp[0], sp[1], ax, ay, az, xc, yc, zc)
			for name, sub := range a.spellings() {
				got := make([]float32, nx)
				sub.launchRow(got, 0, sp[0], sp[1], sp[0], sp[1], ax, ay, az, xc, yc, zc)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d span %v col %d: %s %g != the oracle %g (zero outside the span)",
							trial, sp, i, name, got[i], want[i])
					}
				}
			}
		}
	}
}

// The guarded body of each spelling (the texture-border groups of a span
// launch) must match the oracle on spans whose edges
// genuinely clip: footprints partially or fully outside the detector
// window, where the clamp into the store's zero apron — not residency —
// decides what each neighbour loads. The geometry sweeps x across and past
// both detector edges and pins a narrow readable row window so y clips too;
// the interior sub-span is derived with the same predicate the span walks
// use. Every third trial is instead a row rowSpans hands the guarded body
// whole because w may cross zero: coordinates of either sign and any size,
// a column where w is exactly 0 (rz infinite, x and y infinite or NaN, a
// floor no integer holds), and spans cut so that the wild columns are the
// dead lanes of a partial group — which load like any other lane, and so
// must clamp into the store like any other. Compared bit for bit: NaN for
// NaN.
func TestSIMDGuardedBodyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const nx = 192
	for trial := 0; trial < 90; trial++ {
		a := projAccess{nu: 96, np: 1, lo: 5, hi: 90}
		a.data = make([]float32, a.nu*(a.hi-a.lo))
		for i := range a.data {
			a.data[i] = float32(rng.NormFloat64())
		}
		a.buildRowTable()
		if !a.prepareSIMD() {
			t.Fatal("prepareSIMD refused a small buffer")
		}
		// x sweeps ≈ [−8, 110] across columns [0,nx): both detector edges
		// clip inside the span. y drifts through the row window; w varies
		// so the reciprocal differs lane to lane.
		az := float32((rng.Float64() - 0.5) * 0.002)
		zc := float32(1 + rng.Float64()*0.3)
		ax := float32(0.55+rng.Float64()*0.1) * zc
		xc := float32(-8+rng.Float64()*4) * zc
		ay := float32(0.4+rng.Float64()*0.1) * zc
		yc := float32(rng.Float64()*8) * zc
		var spans [][4]int
		if trial%3 == 2 {
			// w = (k − i)/4 exactly, zero at column k; every other such
			// trial u is zero there too: 0·Inf. No interior.
			k := 8 + rng.Intn(nx-16)
			az, zc = -0.25, 0.25*float32(k)
			ax, xc = float32(rng.NormFloat64()), float32(rng.NormFloat64()*20)
			ay, yc = float32(rng.NormFloat64()), float32(rng.NormFloat64()*20)
			if trial%2 == 0 {
				ax, xc = 0.5, -0.5*float32(k)
			}
			if u, _, w := simdCoords(k, ax, ay, az, xc, yc, zc); w != 0 || (trial%2 == 0) != (u == 0) {
				t.Fatalf("trial %d: column %d has u %g, w %g under test geometry", trial, k, u, w)
			}
			for _, sp := range [][2]int{{0, nx}, {k, k + 1}, {k + 1, nx}, {0, k}, {k - 3, k}, {k + 1, k + 4}, {k - 7, k + 9}} {
				spans = append(spans, [4]int{sp[0], sp[1], sp[0], sp[0]})
			}
		} else {
			// Interior sub-span under the kernel's predicate, exactly what
			// rowRec would hand a launch after its residency walks.
			f0, f1 := 0, nx
			for f0 < f1 && !a.interiorResidentSIMD(f0, ax, ay, az, xc, yc, zc) {
				f0++
			}
			for f0 < f1 && !a.interiorResidentSIMD(f1-1, ax, ay, az, xc, yc, zc) {
				f1--
			}
			if f0 >= f1 {
				t.Fatalf("trial %d: no interior columns under test geometry", trial)
			}
			if f0 == 0 && f1 == nx {
				t.Fatalf("trial %d: no border columns under test geometry", trial)
			}
			for i := f0; i < f1; i++ {
				if !a.interiorResidentSIMD(i, ax, ay, az, xc, yc, zc) {
					t.Fatalf("trial %d: interior span not contiguous at %d", trial, i)
				}
			}
			// Covered spans with genuine border strips on both sides, plus
			// narrow all-border and straddling cuts.
			spans = [][4]int{
				{0, nx, f0, f1},
				{0, f0, f0, f0},                       // pure left border
				{f1, nx, f1, f1},                      // pure right border
				{max(f0-1, 0), min(f1+1, nx), f0, f1}, // ≤1 border column each side
				{f0 / 2, (f1 + nx) / 2, f0, f1},
			}
			for k := 0; k < 8; k++ {
				s0 := rng.Intn(nx - 1)
				s1 := s0 + 1 + rng.Intn(nx-s0)
				g0, g1 := max(s0, f0), min(s1, f1)
				if g0 >= g1 {
					g0, g1 = s0, s0
				}
				spans = append(spans, [4]int{s0, s1, g0, g1})
			}
		}
		for _, sp := range spans {
			if sp[0] >= sp[1] {
				continue
			}
			want := make([]float32, nx)
			a.perColumn(want, 0, sp[0], sp[1], ax, ay, az, xc, yc, zc)
			for name, sub := range a.spellings() {
				got := make([]float32, nx)
				sub.launchRow(got, 0, sp[0], sp[1], sp[2], sp[3], ax, ay, az, xc, yc, zc)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("trial %d span %v col %d: %s %g != the oracle %g",
							trial, sp, i, name, got[i], want[i])
					}
				}
			}
		}
	}
}

// Both spellings of the kernel must reproduce the oracle — the exact
// per-voxel evaluation — byte for byte.
func TestRecurrenceParityVsExact(t *testing.T) {
	sys := testSystem()
	sys.SigmaU, sys.SigmaV = 0.75, -0.25
	stack := randomStack(sys, 29)
	mats := kernelMats(sys)
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	denseAccess(stack).reference(mats, want)
	forRecurrenceKernels(t, func(t *testing.T) {
		got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(device.New("parity", 0, 2), stack, mats, got); err != nil {
			t.Fatal(err)
		}
		assertSameVolume(t, "the oracle", want, got)
	})
}

// What the kernel computes does not depend on the host: on an AVX2 host it
// is the assembly spelling and the ledger says avx2, with AVX2 masked off
// (as on any other host) the Go spelling and the ledger says scalar — and
// the two runs agree byte for byte, with the oracle, and counter for counter
// except in which spelling was dispatched.
func TestDefaultKernelDispatch(t *testing.T) {
	sys := testSystem()
	sys.SigmaU, sys.SigmaV = 9, -7 // clip both detector edges into the rows
	stack := randomStack(sys, 31)
	mats := kernelMats(sys)
	run := func(name string, want device.Arithmetic) (*volume.Volume, device.Ledger) {
		t.Helper()
		dev := device.New(name, 0, 2)
		vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, stack, mats, vol); err != nil {
			t.Fatal(err)
		}
		l := dev.Snapshot()
		if got := l.Arithmetic(); got != want.String() {
			t.Errorf("ledger says %q ran, want %q", got, want)
		}
		if l.Dispatched[want] != l.KernelLaunches {
			t.Errorf("%d of %d launches recorded as %s", l.Dispatched[want], l.KernelLaunches, want)
		}
		return vol, l
	}

	host := device.ArithmeticScalar
	if simdAvailable() {
		host = device.ArithmeticAVX2
	}
	got, l := run("default", host)
	if l.SIMDFullGroups == 0 {
		t.Error("the kernel ran no full 8-lane group")
	}
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	denseAccess(stack).reference(mats, want)
	assertSameVolume(t, "the oracle", want, got)

	defer cpufeat.SetAVX2ForTest(false)()
	masked, ml := run("default-no-avx2", device.ArithmeticScalar)
	assertSameVolume(t, "the default run", got, masked)
	l.Dispatched, ml.Dispatched = [len(l.Dispatched)]int64{}, [len(l.Dispatched)]int64{}
	if l != ml {
		t.Errorf("counters depend on the dispatch:\ndefault %+v\nmasked  %+v", l, ml)
	}
}

// Lane accounting must partition the interior samples exactly:
// full·8 + tail == InteriorSamples after a reconstruction.
func TestSIMDLedgerVectorAccounting(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 37)
	mats := kernelMats(sys)
	dev := device.New("vec", 0, 2)
	vol, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(dev, stack, mats, vol); err != nil {
		t.Fatal(err)
	}
	l := dev.Snapshot()
	if l.SIMDFullGroups == 0 {
		t.Error("no full 8-lane groups recorded")
	}
	if got := l.SIMDFullGroups*simdLanes + l.SIMDTailSamples; got != l.InteriorSamples {
		t.Errorf("vector accounting %d does not partition interior samples %d", got, l.InteriorSamples)
	}
}
