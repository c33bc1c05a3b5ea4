package backproject

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/geometry"
)

// hostSpellings returns the spellings of the kernel this host runs: the Go
// one, and each assembly one the host has the instructions for.
func hostSpellings() []device.Arithmetic {
	out := []device.Arithmetic{device.ArithmeticScalar}
	if cpufeat.AVX2() {
		out = append(out, device.ArithmeticAVX2)
	}
	if cpufeat.AVX512() {
		out = append(out, device.ArithmeticAVX512)
	}
	return out
}

// dispatchOnly masks the host's features down to the given spelling of the
// kernel, so that a launch over rows wide enough for every spelling
// dispatches it, and returns the restore func.
func dispatchOnly(arith device.Arithmetic) (restore func()) {
	switch arith {
	case device.ArithmeticAVX2:
		return cpufeat.SetAVX512ForTest(false)
	case device.ArithmeticScalar:
		return cpufeat.SetAVX2ForTest(false)
	}
	return func() {}
}

// logSkippedSpellings logs each assembly spelling this host cannot run,
// for a test that holds every spelling it can to something: on such a
// host the test passes without it, and says so.
func logSkippedSpellings(t testing.TB) {
	t.Helper()
	if !cpufeat.AVX2() {
		t.Log("the AVX2 spelling was skipped: this host cannot run it")
	}
	if !cpufeat.AVX512() {
		t.Log("the AVX-512 spelling was skipped: this host cannot run it")
	}
}

// spellings returns the access once per spelling of the kernel this
// host can run, keyed by name, for tests that launch spans directly:
// prepareSIMD must have accepted the buffer.
func (a projAccess) spellings() map[string]*projAccess {
	out := map[string]*projAccess{}
	for _, arith := range hostSpellings() {
		sub := a
		sub.arith = arith
		out[arith.String()] = &sub
	}
	return out
}

// buildRowTable re-lays a hand-constructed access's dense samples (a.data:
// rows lo..hi−1 in stack order, np projections of nu columns each) the way
// every store the kernels read is laid out.
func (a *projAccess) buildRowTable() { a.layRows(0, nil) }

// layRows is buildRowTable into a buffer alloc provides (nil: make), of
// exactly the floats the layout declares readable, row v in slot v mod H;
// h > 0 makes the dense samples the contents of slots 0..h−1.
func (a *projAccess) layRows(h int, alloc func(n int) []float32) {
	l, first := device.Layout{NU: a.nu, NP: a.np, H: h}, 0
	if h == 0 {
		l.H, first = a.hi-a.lo, a.lo
	}
	data := make([]float32, l.Len())
	if alloc != nil {
		data = alloc(l.Len())
	}
	for i := 0; i < l.H; i++ {
		l.Store(data, first+i, a.data[i*a.np*a.nu:])
	}
	*a = layoutAccess(l, data, a.lo, a.hi, nil)
}

// launchRow launches one span of one row in one slice the way a block of
// one projection is launched.
func (a *projAccess) launchRow(out []float32, s, c0, c1, f0, f1 int, ax, ay, az, xc, yc, zc float32) {
	a.launchOne(out, 0, s, c0, c1, f0, f1, ax, ay, az, xc, zc, []float32{yc})
}

// launchOne launches projection s alone into the covered columns [c0,c1),
// interior [f0,f1), of one output row in len(yc) slices stride floats
// apart, out starting at the row in the first slice. An empty span
// launches nothing, as rowRec adds no entry for it.
func (a *projAccess) launchOne(out []float32, stride, s, c0, c1, f0, f1 int, ax, ay, az, xc, zc float32, yc []float32) {
	if c0 >= c1 {
		return
	}
	var args tileArgs
	a.initTileArgs(&args, stride, new(rowCache))
	args.h = int64(len(yc))
	a.addEntry(&args, s, c0, c1, f0, f1, ax, ay, az, xc, zc, yc)
	a.launchTile(&args, out)
}

// addEntry appends projection s's entry to a launch as rowRec does, with
// its span, interior, coefficients and row constants given.
func (a *projAccess) addEntry(args *tileArgs, s, c0, c1, f0, f1 int, ax, ay, az, xc, zc float32, yc []float32) {
	e := &args.ent[args.n]
	e.data = unsafe.Pointer(unsafe.SliceData(a.data[s*a.sStride:]))
	e.c0, e.c1, e.f0, e.f1 = int64(c0), int64(c1), int64(f0), int64(f1)
	e.ax, e.ay, e.az, e.xc, e.zc = ax, ay, az, xc, zc
	copy(e.yc[:], yc)
	if args.n == 0 {
		args.c0, args.c1 = e.c0, e.c1
	} else {
		args.c0, args.c1 = min(args.c0, e.c0), max(args.c1, e.c1)
	}
	args.n++
}

// simdCoords returns the contract's homogeneous coordinates at column i.
func simdCoords(i int, ax, ay, az, xc, yc, zc float32) (u, v, w float32) {
	return laneAt(i, ax, xc), laneAt(i, ay, yc), laneAt(i, az, zc)
}

// footprint is tileFootprint in one slice, spelled on its own so that the
// tests judge the span checks with arithmetic they do not share: the pixel
// (iu, iv) at the origin of column i's 2×2 footprint and whether its weight
// rz² is finite, as the kernel computes them under the coordinate contract.
func footprint(i int, ax, ay, az, xc, yc, zc float32) (iu, iv int, finite bool) {
	u, v, w := simdCoords(i, ax, ay, az, xc, yc, zc)
	rz := 1 / w
	return int(floor32(u * rz)), int(floor32(v * rz)), rz*rz < math.MaxFloat32
}

// The functions below are the span decisions as rowRec made them before the
// per-projection and per-launch constants were hoisted out of the row loop:
// every boundary, coefficient and product recomputed from (a, row
// constants) at the point of use. They are the oracle rowSpans is held to.

// The two exact predicates, spelled out without the shared footprint
// helper, as the span walks called them before k-tiles.

func (a *projAccess) interiorResidentSIMD(i int, ax, ay, az, xc, yc, zc float32) bool {
	u, v, w := simdCoords(i, ax, ay, az, xc, yc, zc)
	rz := 1 / w
	iu := int(floor32(u * rz))
	iv := int(floor32(v * rz))
	return iu >= 0 && iu+1 < a.nu && iv >= a.lo && iv+1 < a.hi
}

func (a *projAccess) zeroContribSIMD(i int, ax, ay, az, xc, yc, zc float32) bool {
	u, v, w := simdCoords(i, ax, ay, az, xc, yc, zc)
	rz := 1 / w
	if !(rz*rz < math.MaxFloat32) {
		return false
	}
	iu := int(floor32(u * rz))
	iv := int(floor32(v * rz))
	return iu < -1 || iu >= a.nu || iv < a.lo-1 || iv >= a.hi
}

func (a *projAccess) interiorSpanUnhoisted(ax, xc, ay, yc, az, zc float64, nx int) (int, int) {
	const d = 0.5
	if zc <= 0 || az*float64(nx-1)+zc <= 0 {
		return 0, 0
	}
	lower, upper := 0.0, float64(nx-1)
	tu := float64(a.nu-1) - d
	tl := float64(a.lo) + d
	th := float64(a.hi-1) - d
	clipSpan(&lower, &upper, ax-d*az, d*zc-xc, false)
	clipSpan(&lower, &upper, ax-tu*az, tu*zc-xc, true)
	clipSpan(&lower, &upper, ay-tl*az, tl*zc-yc, false)
	clipSpan(&lower, &upper, ay-th*az, th*zc-yc, true)
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

func (a *projAccess) supportSpanUnhoisted(ax, xc, ay, yc, az, zc float64, nx int) (int, int) {
	const d = 0.5
	lower, upper := 0.0, float64(nx-1)
	tl := -1 - d
	tu := float64(a.nu) + d
	yl := float64(a.lo) - 1 - d
	yh := float64(a.hi) + d
	clipSpan(&lower, &upper, ax-tl*az, tl*zc-xc, false)
	clipSpan(&lower, &upper, ax-tu*az, tu*zc-xc, true)
	clipSpan(&lower, &upper, ay-yl*az, yl*zc-yc, false)
	clipSpan(&lower, &upper, ay-yh*az, yh*zc-yc, true)
	c0 := int(math.Ceil(lower))
	c1 := int(math.Floor(upper)) + 1
	if c0 < 0 {
		c0 = 0
	}
	if c1 > nx {
		c1 = nx
	}
	if c0 >= c1 {
		return 0, 0
	}
	return c0, c1
}

func (a *projAccess) rowSpansUnhoisted(ax, ay, az, xc, yc, zc float32, nx int) (c0, i0, i1, c1 int) {
	axd, ayd, azd := float64(ax), float64(ay), float64(az)
	xcd, ycd, zcd := float64(xc), float64(yc), float64(zc)
	if !(zcd > 0 && azd*float64(nx-1)+zcd > 0) {
		return 0, 0, 0, nx
	}
	w0 := zcd
	wn := azd*float64(nx-1) + zcd
	ux0, uxn := xcd, axd*float64(nx-1)+xcd
	uy0, uyn := ycd, ayd*float64(nx-1)+ycd
	const pd = 0.5
	xloB := -1 - pd
	xhiB := float64(a.nu) + pd
	yloB := float64(a.lo) - 1 - pd
	yhiB := float64(a.hi) + pd
	if (ux0 < xloB*w0 && uxn < xloB*wn) || (ux0 > xhiB*w0 && uxn > xhiB*wn) ||
		(uy0 < yloB*w0 && uyn < yloB*wn) || (uy0 > yhiB*w0 && uyn > yhiB*wn) {
		return 0, 0, 0, 0
	}
	const md = 0.5 + 1e-9
	ixl := md
	ixh := float64(a.nu-1) - md
	iyl := float64(a.lo) + md
	iyh := float64(a.hi-1) - md
	if ux0 > ixl*w0 && uxn > ixl*wn && ux0 < ixh*w0 && uxn < ixh*wn &&
		uy0 > iyl*w0 && uyn > iyl*wn && uy0 < iyh*w0 && uyn < iyh*wn {
		c0, c1 = 0, nx
		i0, i1 = 0, nx
	} else {
		c0, c1 = a.supportSpanUnhoisted(axd, xcd, ayd, ycd, azd, zcd, nx)
		i0, i1 = a.interiorSpanUnhoisted(axd, xcd, ayd, ycd, azd, zcd, nx)
	}
	for i0 < i1 && !a.interiorResidentSIMD(i0, ax, ay, az, xc, yc, zc) {
		i0++
	}
	for i0 < i1 && !a.interiorResidentSIMD(i1-1, ax, ay, az, xc, yc, zc) {
		i1--
	}
	if c0 < c1 {
		for c0 > 0 && !a.zeroContribSIMD(c0-1, ax, ay, az, xc, yc, zc) {
			c0--
		}
		for c1 < nx && !a.zeroContribSIMD(c1, ax, ay, az, xc, yc, zc) {
			c1++
		}
	}
	if i0 < i1 {
		if c0 > i0 {
			c0 = i0
		}
		if c1 < i1 {
			c1 = i1
		}
	}
	return c0, i0, i1, c1
}

// Hoisting constants out of the row loop must not move a single span
// boundary: for random windows, projections and rows — interior, clipped at
// either edge, past the detector, behind the source — rowSpans returns the
// (c0, i0, i1, c1) of the unhoisted decisions. The trial mix must reach
// every branch, or the equality proves less than it says.
func TestRowSpansMatchUnhoisted(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var rejected, accepted, solved, crossing int
	for trial := 0; trial < 20000; trial++ {
		a := projAccess{nu: 2 + rng.Intn(96), lo: rng.Intn(8)}
		a.hi = a.lo + rng.Intn(60)
		a.win = a.newSpanWindow()
		nx := 1 + rng.Intn(128)
		// Scale the row so that, at zc ≈ 1, the columns sweep a random
		// stretch of detector around a random centre: some rows fit inside
		// the window whole, some clip, some miss it.
		zc := float32(0.5 + rng.Float64())
		ax := float32(rng.NormFloat64()*0.6) * zc
		ay := float32(rng.NormFloat64()*0.3) * zc
		az := float32(rng.NormFloat64() * 0.002)
		xc := float32(rng.NormFloat64()*float64(a.nu)*0.7+float64(a.nu)/2) * zc
		yc := float32(rng.NormFloat64()*float64(a.hi-a.lo+2)*0.7+float64(a.lo+a.hi)/2) * zc
		switch trial % 16 {
		case 0:
			zc = -zc // behind the source
		case 1:
			az = -zc / float32(nx) * 1.5 // w crosses zero inside the row
		case 2, 3:
			ax, ay, az = ax*0.05, ay*0.05, az*0.05 // short sweeps: whole-row accepts
		}
		m := geometry.Mat34x4{R0: [4]float32{ax}, R1: [4]float32{ay}, R2: [4]float32{az}}
		pc := a.newProjConsts(0, &m, nx)
		c0, i0, i1, c1 := a.rowSpans(&pc, xc, yc, yc, zc, nx)
		wc0, wi0, wi1, wc1 := a.rowSpansUnhoisted(ax, ay, az, xc, yc, zc, nx)
		if c0 != wc0 || i0 != wi0 || i1 != wi1 || c1 != wc1 {
			t.Fatalf("trial %d: hoisted (%d,%d,%d,%d) != unhoisted (%d,%d,%d,%d); window nu=%d rows=[%d,%d) nx=%d row (%g,%g,%g | %g,%g,%g)",
				trial, c0, i0, i1, c1, wc0, wi0, wi1, wc1, a.nu, a.lo, a.hi, nx, ax, ay, az, xc, yc, zc)
		}
		switch {
		case c0 == 0 && c1 == nx && i0 == 0 && i1 == 0:
			crossing++
		case c0 == c1:
			rejected++
		case i0 == 0 && i1 == nx:
			accepted++
		default:
			solved++
		}
	}
	for name, n := range map[string]int{"empty-support": rejected, "whole-row interior": accepted, "clipped": solved, "no-span": crossing} {
		if n < 500 {
			t.Errorf("only %d %s rows among the trials", n, name)
		}
	}
}
