package backproject

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/geometry"
)

// requireBlockSpans skips a test of blockSpans512 on a host that cannot
// run it, saying so.
func requireBlockSpans(t testing.TB) {
	t.Helper()
	if hostArithmetic() != device.ArithmeticAVX512 {
		t.Skip("the AVX-512 span solve was skipped: this host cannot run it")
	}
}

// blockSpansMismatch makes one launch's entries for block, row jf and the
// slices kf both ways — rowRec a projection at a time, the oracle, and
// blockSpans512 from lanes — and describes the first field in which they
// differ, or returns "". The two argument blocks start from different
// garbage, so a field the routine fails to write shows.
func (a *projAccess) blockSpansMismatch(block []projConsts, lanes *blockLanes, jf float32, kf []float32, nx int) string {
	h := len(kf)
	var want, got tileArgs
	want.h, got.h = int64(h), int64(h)
	got.n, got.c0, got.c1 = 99, -5, -6
	for i := range got.ent {
		e := &got.ent[i]
		e.c0, e.c1, e.f0, e.f1 = -1, -2, -3, -4
		e.ax, e.ay, e.az, e.xc, e.zc = -7, -7, -7, -7, -7
		for t := range e.yc {
			e.yc[t] = float32(-t)
			want.ent[i].yc[t] = float32(-t) // past h, neither path may write
		}
	}
	wc := kernelCounters{interior: 3, border: 5, skipped: 7}
	gc := wc
	for i := range block {
		a.rowRec(&want, &block[i], jf, kf, nx, &wc)
	}
	blockSpans512(&got, lanes, &kf[0], jf, &gc)
	if gc != wc {
		return fmt.Sprintf("counters %+v, want %+v", gc, wc)
	}
	if got.n != want.n {
		return fmt.Sprintf("%d entries, want %d", got.n, want.n)
	}
	if want.n > 0 && (got.c0 != want.c0 || got.c1 != want.c1) {
		return fmt.Sprintf("hull [%d,%d), want [%d,%d)", got.c0, got.c1, want.c0, want.c1)
	}
	bits := math.Float32bits
	for i := range want.ent[:want.n] {
		g, w := &got.ent[i], &want.ent[i]
		if g.data != w.data || g.c0 != w.c0 || g.c1 != w.c1 || g.f0 != w.f0 || g.f1 != w.f1 {
			return fmt.Sprintf("entry %d: span [%d,%d) interior [%d,%d) data %p, want [%d,%d) [%d,%d) %p",
				i, g.c0, g.c1, g.f0, g.f1, g.data, w.c0, w.c1, w.f0, w.f1, w.data)
		}
		gv := [5]float32{g.ax, g.ay, g.az, g.xc, g.zc}
		wv := [5]float32{w.ax, w.ay, w.az, w.xc, w.zc}
		for k := range gv {
			if bits(gv[k]) != bits(wv[k]) {
				return fmt.Sprintf("entry %d: ax, ay, az, xc, zc %v, want %v", i, gv, wv)
			}
		}
		for t := range zBlock {
			if bits(g.yc[t]) != bits(w.yc[t]) {
				return fmt.Sprintf("entry %d: yc[%d] %g (%#x), want %g (%#x)", i, t, g.yc[t], bits(g.yc[t]), w.yc[t], bits(w.yc[t]))
			}
		}
	}
	return ""
}

// spanCase is one launch's inputs for the span solve: a window, a block of
// matrices, the row and the tile's slices.
type spanCase struct {
	nu, lo, hi, nx int
	mats           []geometry.Mat34x4
	jf             float32
	kf             []float32
}

// check runs c both ways, the lanes first filled with garbage that the
// block's lanes must not be influenced by, and fails t on a mismatch.
func (c *spanCase) check(t testing.TB, rng *rand.Rand, name string) {
	t.Helper()
	a := projAccess{nu: c.nu, np: len(c.mats), sStride: 3, lo: c.lo, hi: c.hi}
	a.data = make([]float32, 3*len(c.mats)+1)
	a.win = a.newSpanWindow()
	lanes := new(blockLanes)
	garbage := func() float32 {
		return [...]float32{float32(math.NaN()), float32(math.Inf(-1)), 0, -1e30, 3}[rng.Intn(5)]
	}
	for c := range 4 {
		for i := range projBlock {
			lanes.r0[c][i], lanes.r1[c][i], lanes.r2[c][i] = garbage(), garbage(), garbage()
			lanes.support[c][i], lanes.interior[c][i] = float64(garbage()), float64(garbage())
			lanes.axn[i], lanes.ayn[i], lanes.azn[i] = float64(garbage()), 0, float64(garbage())
		}
	}
	a.initLanes(lanes, c.nx)
	block := make([]projConsts, len(c.mats))
	for i := range block {
		block[i] = a.newProjConsts(i, &c.mats[i], c.nx)
	}
	lanes.load(block)
	if msg := a.blockSpansMismatch(block, lanes, c.jf, c.kf, c.nx); msg != "" {
		t.Fatalf("%s: %s; window nu=%d rows=[%d,%d) nx=%d, row %g, slices %v, matrices %v",
			name, msg, c.nu, c.lo, c.hi, c.nx, c.jf, c.kf, c.mats)
	}
}

// randomSpanCase draws a window, a tile of h slices and a block of n
// projections whose rows land inside, across and outside it: rowSpans'
// trial mix (TestRowSpansMatchUnhoisted) given matrices, so that j and k
// move the row constants, plus the matrices no geometry makes — w behind
// the source or crossing zero in the row, tiny and huge w, zero column
// coefficients, and infinite or overflowing entries.
func randomSpanCase(rng *rand.Rand, n, h int) spanCase {
	c := spanCase{nu: 2 + rng.Intn(96), lo: rng.Intn(8), nx: 1 + rng.Intn(128)}
	c.hi = c.lo + rng.Intn(60)
	j := rng.Intn(64)
	k0 := rng.Intn(200)
	c.jf = float32(j)
	for t := range h {
		c.kf = append(c.kf, float32(k0+t))
	}
	tilted := rng.Intn(4) == 0
	for range n {
		zc := 0.5 + rng.Float64()
		ax := rng.NormFloat64() * 0.6 * zc
		ay := rng.NormFloat64() * 0.3 * zc
		az := rng.NormFloat64() * 0.002
		xc := (rng.NormFloat64()*float64(c.nu)*0.7 + float64(c.nu)/2) * zc
		yc := (rng.NormFloat64()*float64(c.hi-c.lo+2)*0.7 + float64(c.lo+c.hi)/2) * zc
		// Per-slice and per-row moves, the constants absorbing them.
		bx, by, bz := rng.NormFloat64()*0.2, rng.NormFloat64()*0.2, rng.NormFloat64()*0.001
		cy := rng.NormFloat64() * 0.8 * zc
		cx, cz := 0.0, 0.0
		if tilted {
			cx, cz = rng.NormFloat64()*0.02, rng.NormFloat64()*1e-4
		}
		switch rng.Intn(22) {
		case 0:
			zc = -zc // behind the source
		case 1:
			az = -zc / float64(c.nx) * 1.5 // w crosses zero inside the row
		case 2, 3:
			ax, ay, az, cy = ax*0.05, ay*0.05, az*0.05, cy*0.05 // whole-row accepts
		case 4:
			s := math.Pow(10, float64(-30+rng.Intn(25))) // tiny w
			zc, az, bz = zc*s, az*s, bz*s
		case 5:
			s := math.Pow(10, float64(10+rng.Intn(28))) // huge w
			zc, az, xc, yc = zc*s, az*s, xc*s, yc*s
		case 6:
			ax, az = 0, 0 // x's coefficients are zero: clipSpan's c == 0
		case 7:
			ay, az, cy = 0, 0, 0
		case 8:
			ax = math.Inf(1 - 2*rng.Intn(2))
		case 9:
			xc, yc = 3e38, -3e38 // constants that overflow when j and k move them
			bx, by = 1e38, 1e38
		case 10:
			az = 1e-30 // w flat, x and y steep
			ax, ay = ax*1e6, ay*1e6
		case 11:
			zc, yc = math.Inf(1), math.Inf(1-2*rng.Intn(2)) // rz = 0 and y = ∞·0, a NaN
			bz, by = 0, 0
		}
		m := geometry.Mat34x4{
			R0: [4]float32{float32(ax), float32(bx), float32(cx), float32(xc - bx*float64(j) - cx*float64(k0))},
			R1: [4]float32{float32(ay), float32(by), float32(cy), float32(yc - by*float64(j) - cy*float64(k0))},
			R2: [4]float32{float32(az), float32(bz), float32(cz), float32(zc - bz*float64(j) - cz*float64(k0))},
		}
		c.mats = append(c.mats, m)
	}
	return c
}

// blockSpans512 must make rowRec's entries and counters, field for field
// and bit for bit: random windows, rows and tiles of 1–16 slices, blocks
// of 1–16 projections, tilted blocks (which tileRec launches a slice at a
// time) and the matrices no geometry makes. The trial mix must reach every
// branch of rowSpans, and the probes must move the analytic solve's
// endpoints in some trials, or the equality proves less than it says.
func TestBlockSpansMatchRowRec(t *testing.T) {
	requireBlockSpans(t)
	rng := rand.New(rand.NewSource(46))
	kinds := map[string]int{}
	for trial := 0; trial < 6000; trial++ {
		n, h := 1+trial%projBlock, 1+(trial/projBlock)%zBlock
		c := randomSpanCase(rng, n, h)
		c.check(t, rng, fmt.Sprintf("trial %d", trial))
		tallySpans(&c, kinds)
	}
	for _, kind := range []string{"empty-support", "whole-row interior", "clipped", "no-span", "walked", "infinite"} {
		if kinds[kind] < 100 {
			t.Errorf("only %d %s rows among the trials (%v)", kinds[kind], kind, kinds)
		}
	}
}

// tallySpans counts, for c's projections, which way rowSpans decided each
// row, whether the float32 probes moved an endpoint of the analytic solve,
// and whether a row constant is infinite or NaN.
func tallySpans(c *spanCase, kinds map[string]int) {
	a := projAccess{nu: c.nu, lo: c.lo, hi: c.hi}
	a.win = a.newSpanWindow()
	for i := range c.mats {
		m := &c.mats[i]
		pc := a.newProjConsts(0, m, c.nx)
		var args tileArgs
		var ctr kernelCounters
		a.rowRec(&args, &pc, c.jf, c.kf, c.nx, &ctr)
		e := &args.ent[0]
		ya, yb := e.yc[0], e.yc[len(c.kf)-1]
		xc := float32(m.R0[1]*c.jf) + float32(m.R0[2]*c.kf[0]) + m.R0[3]
		zc := float32(m.R2[1]*c.jf) + float32(m.R2[2]*c.kf[0]) + m.R2[3]
		for _, v := range []float32{xc, zc, ya, yb} {
			if math.IsInf(float64(v), 0) || v != v {
				kinds["infinite"]++
				break
			}
		}
		c0, i0, i1, c1 := a.rowSpans(&pc, xc, ya, yb, zc, c.nx)
		switch {
		case c0 == 0 && c1 == c.nx && i0 == 0 && i1 == 0:
			kinds["no-span"]++
		case c0 == c1:
			kinds["empty-support"]++
		case i0 == 0 && i1 == c.nx:
			kinds["whole-row interior"]++
		default:
			kinds["clipped"]++
			lo, hi := min(ya, yb), max(ya, yb)
			s0, s1 := clipRow(&pc.support, &a.win.support, float64(xc), float64(hi), float64(lo), float64(zc), c.nx)
			f0, f1 := clipRow(&pc.interior, &a.win.interior, float64(xc), float64(lo), float64(hi), float64(zc), c.nx)
			if s0 != c0 || s1 != c1 || (f0 < f1 && (f0 != i0 || f1 != i1)) {
				kinds["walked"]++
			}
		}
	}
}

// The exact launches of the benchmark's four workloads (tomo_00030 at
// -div 8: single-kernel at n 96, single-filter at n 24, ranks-inproc and
// ranks-world at n 96 over two ranks of one group, each rank holding half
// the projections), one worker each: every (block, k-tile, row) of every
// slab of the default batch cut, over the window the slab needs and over
// one that holds the rows of the slab before it too.
func TestBlockSpansMatchOnBenchmarkShapes(t *testing.T) {
	requireBlockSpans(t)
	ds, err := dataset.ByName("tomo_00030")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ds.Scaled(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name     string
		n, ranks int
	}{{"single-kernel", 96, 1}, {"single-filter", 24, 1}, {"ranks-inproc", 96, 2}, {"ranks-world", 96, 2}} {
		sys, err := scaled.System(w.n)
		if err != nil {
			t.Fatal(err)
		}
		all := kernelMats(sys)
		const batches = 8
		slab := (sys.NZ + batches - 1) / batches
		launches := 0
		for r := range w.ranks {
			share := sys.NP / w.ranks
			mats := all[r*share : (r+1)*share]
			for z0 := 0; z0 < sys.NZ; z0 += slab {
				nz := min(slab, sys.NZ-z0)
				need := sys.ComputeAB(z0, z0+nz)
				held := need
				if z0 > 0 {
					held.Lo = min(held.Lo, sys.ComputeAB(z0-slab, z0).Lo)
				}
				for _, rows := range []geometry.RowRange{need, held} {
					a := projAccess{data: make([]float32, sys.NU*len(mats)), nu: sys.NU, np: len(mats), sStride: sys.NU, lo: rows.Lo, hi: rows.Hi}
					a.win = a.newSpanWindow()
					lanes := new(blockLanes)
					a.initLanes(lanes, sys.NX)
					var pcs [projBlock]projConsts
					th := tileHeight(nz, 1)
					for sb := 0; sb < len(mats); sb += projBlock {
						block := pcs[:min(projBlock, len(mats)-sb)]
						for i := range block {
							block[i] = a.newProjConsts(sb+i, &mats[sb+i], sys.NX)
						}
						lanes.load(block)
						for kt := 0; kt < nz; kt += th {
							var kf []float32
							for k := kt; k < min(kt+th, nz); k++ {
								kf = append(kf, float32(z0+k))
							}
							for j := range sys.NY {
								if msg := a.blockSpansMismatch(block, lanes, float32(j), kf, sys.NX); msg != "" {
									t.Fatalf("%s rank %d, slab z %d+%d, rows %v, block %d, row %d: %s", w.name, r, z0, nz, rows, sb/projBlock, j, msg)
								}
								launches++
							}
						}
					}
				}
			}
		}
		t.Logf("%s: %d launches compared", w.name, launches)
	}
}

// FuzzBlockSpans is TestBlockSpansMatchRowRec's comparison under the
// fuzzer's control: a random case from seed, then one of its numbers — a
// matrix entry, the row or a slice index — replaced by the float32 whose
// bits are given (a NaN is taken as an infinity: a geometry has none, and
// IEEE leaves the payload of an operation on two NaNs open).
func FuzzBlockSpans(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(12), uint32(0), uint8(255))
	f.Add(int64(2), uint8(16), uint8(3), uint32(0x7f800000), uint8(2))    // +Inf in a matrix
	f.Add(int64(3), uint8(5), uint8(1), uint32(0x00000001), uint8(8))     // a denormal az
	f.Add(int64(4), uint8(1), uint8(16), uint32(0x5f000000), uint8(3))    // 2⁶³
	f.Add(int64(5), uint8(9), uint8(7), uint32(0x80000000), uint8(11))    // −0
	f.Add(int64(6), uint8(16), uint8(16), uint32(0x4f000000), uint8(192)) // row 2³¹
	f.Fuzz(func(t *testing.T, seed int64, n, h uint8, bits uint32, at uint8) {
		requireBlockSpans(t)
		rng := rand.New(rand.NewSource(seed))
		c := randomSpanCase(rng, 1+int(n)%projBlock, 1+int(h)%zBlock)
		v := math.Float32frombits(bits)
		if v != v {
			v = float32(math.Inf(int(bits>>31)*-2 + 1))
		}
		switch i := int(at); {
		case i < 12*len(c.mats):
			m := &c.mats[i/12]
			[]*[4]float32{&m.R0, &m.R1, &m.R2}[i%12/4][i%4] = v
		case i < 12*len(c.mats)+len(c.kf):
			c.kf[i-12*len(c.mats)] = v
		default:
			c.jf = v
		}
		c.check(t, rng, "fuzz")
	})
}
