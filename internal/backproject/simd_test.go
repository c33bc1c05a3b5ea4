package backproject

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/volume"
)

// Every spelling of a span launch — each assembly one the host runs, and
// the Go one — must produce the oracle's accumulations bit for bit on
// resident columns: the guards only decide whether a load happens, never
// its value. This is the bit-identity the decomposition invariance rests
// on: a column can be classified interior in one slab/window decomposition
// and border in another, and both bodies must agree to the last bit.
// Exercises the whole surface of each: masked head/tail groups (all
// sub-span widths, including 1..31), paired and guarded loads, and the
// divide.
func TestSIMDSpanMatchesGuardedEmulation(t *testing.T) {
	logSkippedSpellings(t)
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

// A guarded group that the covered span [c0,c1) only partly holds must
// write its covered columns and no other, so an unmasked store may serve
// only a group whose lanes are all covered. The columns outside the
// span hold −0, which adding even +0 turns into +0, and the span starts and
// ends mid-group inside the detector's shadow, in a tile of three slices,
// with an interior run of fast groups between the guarded ends and without
// one. The same holds for a block: its launch covers the union of its
// projections' spans and nothing else, whether the spans nest, overlap or
// leave a gap inside their hull. Every spelling must leave the −0 columns
// bit for bit.
func TestGuardedPartialGroupWritesOnlySpan(t *testing.T) {
	logSkippedSpellings(t)
	rng := rand.New(rand.NewSource(71))
	const nx, h = 64, 3
	spans := [][4]int{{3, 61, 3, 3}, {11, 29, 11, 11}, {5, 59, 5, 59}, {13, 14, 13, 13}, {40, 47, 40, 40}}
	a := projAccess{nu: 96, np: len(spans), lo: 0, hi: 96}
	a.data = make([]float32, a.nu*a.np*(a.hi-a.lo))
	for i := range a.data {
		a.data[i] = 1 + rng.Float32()
	}
	a.buildRowTable()
	if !a.prepareSIMD() {
		t.Fatal("prepareSIMD refused a small buffer")
	}
	// x ≈ 4 + 1.2·i and y ≈ 20 + 0.3·i (+2 per slice): every column of the
	// row is resident in every slice.
	ax, ay, az, xc, zc := float32(1.2), float32(0.3), float32(0), float32(4), float32(1)
	yc := []float32{20, 22, 24}
	negZero := math.Float32frombits(1 << 31)
	for _, block := range [][]int{{0}, {1}, {2}, {3}, {4}, {0, 1}, {3, 4}, {1, 3, 4}, {0, 1, 2, 3, 4}} {
		for name, sub := range a.spellings() {
			out := make([]float32, h*nx)
			for i := range out {
				out[i] = negZero
			}
			var args tileArgs
			sub.initTileArgs(&args, nx, new(rowCache))
			args.h = h
			for _, s := range block {
				sp := spans[s]
				sub.addEntry(&args, s, sp[0], sp[1], sp[2], sp[3], ax, ay, az, xc, zc, yc)
			}
			sub.launchTile(&args, out)
			for k := 0; k < h; k++ {
				for i := 0; i < nx; i++ {
					covered := false
					for _, s := range block {
						covered = covered || i >= spans[s][0] && i < spans[s][1]
					}
					if v := out[k*nx+i]; covered == (math.Float32bits(v) == 1<<31) {
						t.Fatalf("%s, block %v: slice %d column %d holds %g (covered %v)", name, block, k, i, v, covered)
					}
				}
			}
		}
	}
}

// blockFixture is a store of projBlock projections and, for each, row
// constants under which every column of a row up to 100 wide is resident
// in every slice of a 16-slice tile — so any sub-span of a row may be
// declared interior — with its own pitch, climb, slope of w and sweep of v.
type blockFixture struct {
	a                  projAccess
	ax, ay, az, xc, zc [projBlock]float32
	yc                 [projBlock][zBlock]float32
}

func newBlockFixture(t *testing.T, rng *rand.Rand) *blockFixture {
	t.Helper()
	f := &blockFixture{a: projAccess{nu: 160, np: projBlock, lo: 0, hi: 96}}
	f.a.data = make([]float32, f.a.nu*f.a.np*(f.a.hi-f.a.lo))
	for i := range f.a.data {
		f.a.data[i] = float32(rng.NormFloat64())
	}
	f.a.buildRowTable()
	if !f.a.prepareSIMD() {
		t.Fatal("prepareSIMD refused a small buffer")
	}
	for s := 0; s < projBlock; s++ {
		zc := float32(1 + rng.Float64()*0.2)
		f.az[s], f.zc[s] = float32((rng.Float64()-0.5)*0.001), zc
		f.ax[s] = float32(0.9+rng.Float64()*0.3) * zc
		f.xc[s] = float32(2+rng.Float64()*3) * zc
		f.ay[s] = float32(rng.Float64()*0.3) * zc
		y0, dy := 2+rng.Float64()*3, 0.3+rng.Float64()
		for k := range f.yc[s] {
			f.yc[s][k] = float32(y0+dy*float64(k)) * zc
		}
		for i := 0; i < 100; i++ {
			for _, y := range f.yc[s] {
				if !f.a.interiorResidentSIMD(i, f.ax[s], f.ay[s], f.az[s], f.xc[s], y, f.zc[s]) {
					t.Fatalf("projection %d: column %d not resident under the fixture's geometry", s, i)
				}
			}
		}
	}
	return f
}

// add appends projection s's entry with the span [c0,c1), interior
// [f0,f1), in the tile's first h slices.
func (f *blockFixture) add(a *projAccess, args *tileArgs, s, c0, c1, f0, f1, h int) {
	a.addEntry(args, s, c0, c1, f0, f1, f.ax[s], f.ay[s], f.az[s], f.xc[s], f.zc[s], f.yc[s][:h])
}

// launch back-projects the projections whose spans are sp, in ascending s
// (sp[s] is projection s's [c0,c1) and interior [f0,f1)), into a row of nx
// columns in h slices stride floats apart: as one block launch, or one
// launch per projection.
func (f *blockFixture) launch(a *projAccess, out []float32, stride, nx, h int, sp [][4]int, block bool) {
	var args tileArgs
	a.initTileArgs(&args, stride, new(rowCache))
	args.h = int64(h)
	for s, c := range sp {
		f.add(a, &args, s, c[0], c[1], c[2], c[3], h)
		if !block {
			a.launchTile(&args, out)
			args.n = 0
		}
	}
	if block {
		a.launchTile(&args, out)
	}
}

// sentinelRows returns h rows of nx columns, stride floats apart, holding
// random values in the columns some span of sp covers and, everywhere else
// (the columns no projection covers and the floats between the rows),
// alternately −0 and a NaN: sentinels that any store of a sum, even of +0,
// would change.
func sentinelRows(rng *rand.Rand, stride, nx, h int, sp [][4]int) []float32 {
	out := make([]float32, (h-1)*stride+nx)
	for i := range out {
		col, covered := i%stride, false
		for _, c := range sp {
			covered = covered || col >= c[0] && col < c[1]
		}
		switch {
		case covered:
			out[i] = float32(rng.NormFloat64())
		case i%2 == 0:
			out[i] = math.Float32frombits(1 << 31)
		default:
			out[i] = math.Float32frombits(0x7fc0_1234)
		}
	}
	return out
}

// A block launch must write what launching its projections one at a time in
// ascending s writes, bit for bit, in every spelling: the register-held
// running sums of the 16-lane spelling add the same float32 values in the
// same order as the volume carrying them from launch to launch. Blocks of
// 1–16 projections into tiles of 1–16 slices, on rows whose width is and
// is not a multiple of a group's, with random spans and interiors (any
// sub-span is interior under the fixture's geometry) — and one block whose
// 16-column group [16,32) is fast for one projection, guarded for the next,
// outside the support of a third and partly covered by a fourth. The
// columns no projection covers, and the floats between the rows, hold −0
// and NaN sentinels that must come out bit for bit.
func TestBlockLaunchMatchesPerProjection(t *testing.T) {
	logSkippedSpellings(t)
	rng := rand.New(rand.NewSource(83))
	f := newBlockFixture(t, rng)
	type launch struct {
		nx, h int
		sp    [][4]int
	}
	launches := []launch{{96, 12, [][4]int{{0, 96, 0, 96}, {0, 96, 0, 0}, {40, 96, 40, 96}, {20, 28, 20, 20}}}}
	widths := []int{24, 32, 33, 96, 100}
	for n := 1; n <= projBlock; n++ {
		for h := 1; h <= zBlock; h++ {
			l := launch{nx: widths[(n+h)%len(widths)], h: h}
			for range n {
				c0 := rng.Intn(l.nx)
				c1 := c0 + 1 + rng.Intn(l.nx-c0)
				f0, f1 := c0, c0
				if rng.Intn(3) > 0 {
					f0 = c0 + rng.Intn(c1-c0)
					f1 = f0 + rng.Intn(c1-f0+1)
				}
				l.sp = append(l.sp, [4]int{c0, c1, f0, f1})
			}
			launches = append(launches, l)
		}
	}
	for _, l := range launches {
		stride := l.nx + 1 + rng.Intn(20)
		init := sentinelRows(rng, stride, l.nx, l.h, l.sp)
		var first []float32
		for name, sub := range f.a.spellings() {
			want := slices.Clone(init)
			f.launch(sub, want, stride, l.nx, l.h, l.sp, false)
			got := slices.Clone(init)
			f.launch(sub, got, stride, l.nx, l.h, l.sp, true)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s, %d projections, %d slices of %d columns, spans %v: slice %d column %d: block %g (%#x) != one at a time %g (%#x)",
						name, len(l.sp), l.h, l.nx, l.sp, i/stride, i%stride, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
			if first == nil {
				first = got
			} else if !slices.EqualFunc(first, got, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
				t.Fatalf("%s, spans %v: the spellings' block launches differ", name, l.sp)
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
	logSkippedSpellings(t)
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

// Every spelling of the kernel must reproduce the oracle — the exact
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

// What the kernel computes does not depend on the host: the default
// dispatch runs the widest spelling the host has and the ledger names it;
// with AVX-512 masked off the ledger says avx2 (on a host with AVX2), with
// AVX2 masked off (as on any other host) scalar — and every run agrees with
// the default byte for byte, with the oracle, and counter for counter
// except in which spelling was dispatched.
func TestDefaultKernelDispatch(t *testing.T) {
	logSkippedSpellings(t)
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
			t.Errorf("%s: ledger says %q ran, want %q", name, got, want)
		}
		if l.Dispatched[want] != l.KernelLaunches {
			t.Errorf("%s: %d of %d launches recorded as %s", name, l.Dispatched[want], l.KernelLaunches, want)
		}
		l.Dispatched = [len(l.Dispatched)]int64{}
		return vol, l
	}

	got, l := run("default", hostArithmetic())
	if l.InteriorSamples == 0 {
		t.Error("the kernel ran no interior sample")
	}
	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	denseAccess(stack).reference(mats, want)
	assertSameVolume(t, "the oracle", want, got)

	noAVX512 := device.ArithmeticScalar
	if cpufeat.AVX2() {
		noAVX512 = device.ArithmeticAVX2
	}
	for _, masked := range []struct {
		name string
		mask func(bool) func()
		want device.Arithmetic
	}{
		{"default-no-avx512", cpufeat.SetAVX512ForTest, noAVX512},
		{"default-no-avx2", cpufeat.SetAVX2ForTest, device.ArithmeticScalar},
	} {
		restore := masked.mask(false)
		vol, ml := run(masked.name, masked.want)
		restore()
		assertSameVolume(t, masked.name, got, vol)
		if l != ml {
			t.Errorf("counters depend on the dispatch:\ndefault %+v\n%s %+v", l, masked.name, ml)
		}
	}
}

// Narrow rows run the host's widest spelling like any other (on an AVX-512
// host an 8-column row holds no whole 16-lane group, so every column takes
// the guarded body), and each width holds to the oracle.
func TestNarrowRowsRunWidestSpelling(t *testing.T) {
	logSkippedSpellings(t)
	want := hostArithmetic()
	for _, nx := range []int{8, 16, 24, 32} {
		sys := testSystem()
		sys.NX = nx
		stack := randomStack(sys, 43)
		mats := kernelMats(sys)
		dev := device.New("narrow", 0, 2)
		got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		if err := Batch(dev, stack, mats, got); err != nil {
			t.Fatal(err)
		}
		if ran := dev.Snapshot().Arithmetic(); ran != want.String() {
			t.Errorf("%d-column rows ran %q, want %q", nx, ran, want)
		}
		oracle, _ := volume.New(sys.NX, sys.NY, sys.NZ)
		denseAccess(stack).reference(mats, oracle)
		assertSameVolume(t, "the oracle", oracle, got)
	}
}
