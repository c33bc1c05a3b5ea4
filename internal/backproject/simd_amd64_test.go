package backproject

import (
	"math/rand"
	"testing"
)

// The assembly's window loads — two loads and two permutes per footprint
// edge, for one detector row or, blended per lane, for two adjacent ones —
// must give what its gathers give, which is what the oracle
// and the Go spelling give, on tiles of every height and in both bodies,
// and each way a group's samples can be fetched must be taken somewhere
// among the trials: the counts below decide a group's fetch from the
// per-column footprints exactly as SAMPLE does from its lanes. The guarded
// body's windows must be seen to start inside a row's left apron, to end in
// its right one, and to read the zero slot as their second or third row.
// alloc (nil: make) provides the store's buffer, of exactly the floats the
// layout declares readable, so that a variant of this test can put an
// unreadable page right behind it. (In this file because its subject is the assembly.)
func testSIMDWindowLoads(t *testing.T, alloc func(n int) []float32) {
	if !simdAvailable() {
		t.Skip("no usable AVX2")
	}
	rng := rand.New(rand.NewSource(67))
	const nx = 160
	counts := map[string]int{}
	for trial := 0; trial < 84; trial++ {
		a := projAccess{nu: 240, np: 1, lo: 4, hi: 64}
		a.data = make([]float32, a.nu*(a.hi-a.lo))
		for i := range a.data {
			a.data[i] = float32(rng.NormFloat64())
		}
		a.layRows(0, alloc)
		if !a.prepareSIMD() {
			t.Fatal("prepareSIMD refused a small buffer")
		}
		// w ≈ 1 ± 0.1, so the reciprocal varies lane to lane. x climbs 0.8
		// px per column (a group spans 5.6 px: one window) or 1.2 (8.4 px:
		// none); y is almost level, or climbs 0.2 px per column and changes
		// row inside most groups, or 0.3 and crosses three. Kinds 0–3 keep
		// every column inside the detector (the fast body); 4–6 sweep x
		// over the detector's left or right edge while the slices step y
		// over the window's first or last row, or y climbs out past the
		// last row: the guarded body, down to the zero slot's right apron —
		// the last floats of the store.
		az := float32((rng.Float64() - 0.5) * 0.001)
		zc := float32(1 + rng.Float64()*0.2)
		pitch, climb := 0.8, 0.004
		x0, y0, dy := 2+rng.Float64()*3, float64(a.lo)+1+rng.Float64()*3, 0.3+rng.Float64()
		switch trial % 7 {
		case 1:
			pitch = 1.2
		case 2:
			climb = 0.2
		case 3:
			climb, dy = 0.3, 0.3+0.2*rng.Float64()
		case 4:
			x0, y0, dy = -8+rng.Float64(), float64(a.lo)-1.6, 0.45
		case 5:
			x0, y0, dy = float64(a.nu)-120+rng.Float64(), float64(a.hi)-1.8, 0.45
		case 6:
			climb = 0.2
			x0, y0, dy = float64(a.nu)-110+rng.Float64(), float64(a.hi)-20, 0.3
		}
		ax := float32(pitch+rng.Float64()*0.01) * zc
		xc := float32(x0) * zc
		ay := float32(climb) * zc
		yc := make([]float32, 1+trial%zBlock)
		for k := range yc {
			yc[k] = float32(y0+dy*float64(k)) * zc
		}
		// The interior sub-span as rowRec derives it: resident in every slice.
		residentAt := func(i int) bool {
			for _, y := range yc {
				if !a.interiorResidentSIMD(i, ax, ay, az, xc, y, zc) {
					return false
				}
			}
			return true
		}
		f0, f1 := 0, nx
		for f0 < f1 && !residentAt(f0) {
			f0++
		}
		for f0 < f1 && !residentAt(f1-1) {
			f1--
		}
		for i := f0; i < f1; i++ {
			if !residentAt(i) {
				t.Fatalf("trial %d: interior span [%d,%d) not contiguous at %d", trial, f0, f1, i)
			}
		}
		if trial%7 < 4 && (f0 != 0 || f1 != nx) {
			t.Fatalf("trial %d: interior [%d,%d) under an all-interior test geometry", trial, f0, f1)
		}
		if f0 >= f1 {
			f0, f1 = 0, 0
		}
		for _, y := range yc {
			for g := 0; g < nx; g += simdLanes {
				body := "fast"
				var iu, iv [simdLanes]int
				for l := range iu {
					iu[l], iv[l], _ = footprint(g+l, ax, ay, az, xc, y, zc)
				}
				if g < (f0+simdLanes-1)&^(simdLanes-1) || g+simdLanes > f1&^(simdLanes-1) {
					body = "guarded"
					for l := range iu {
						iu[l], iv[l] = min(max(iu[l], -2), a.nu), min(max(iv[l], a.lo-2), a.hi)
					}
				}
				base, row := min(iu[0], iu[simdLanes-1]), min(iv[0], iv[simdLanes-1])
				rows, oneWindow := 1, true
				for l := range iu {
					oneWindow = oneWindow && iu[l] >= base && iu[l] < base+simdLanes
					switch {
					case iv[l] != iv[0] && (iv[l] < row || iv[l] > row+1):
						rows = 3
					case iv[l] != iv[0] && rows < 3:
						rows = 2
					}
				}
				switch {
				case rows == 3 || rows == 2 && !oneWindow:
					counts["row-gathering"]++
					continue
				case !oneWindow:
					counts["wider-than-a-window"]++
					continue
				case rows == 2:
					counts[body+" two-row blend"]++
				default:
					counts["one-row window"]++
				}
				if base < 0 {
					counts["left-apron window"]++
				}
				if base+simdLanes >= a.nu {
					counts["right-apron window"]++
				}
				if row < a.lo || row+rows >= a.hi {
					counts["zero-slot row"]++
				}
			}
		}
		var args simdRowArgs
		a.initSpanArgs(&args, 0, ax, ay, az)
		want := make([]float32, len(yc)*nx)
		for k, y := range yc {
			a.perColumn(want[k*nx:(k+1)*nx], 0, 0, nx, ax, ay, az, xc, y, zc)
		}
		for name, sub := range a.spellings() {
			got := make([]float32, len(yc)*nx)
			sub.launchSpan(&args, got, nx, 0, nx, f0, f1, xc, zc, yc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: slice %d column %d: %s %g != the oracle %g", trial, i/nx, i%nx, name, got[i], want[i])
				}
			}
		}
	}
	for _, name := range []string{"one-row window", "fast two-row blend", "guarded two-row blend", "row-gathering", "wider-than-a-window",
		"left-apron window", "right-apron window", "zero-slot row"} {
		if counts[name] < 20 {
			t.Errorf("only %d %s groups among the trials", counts[name], name)
		}
	}
}

func TestSIMDWindowLoadsMatchGathers(t *testing.T) {
	testSIMDWindowLoads(t, nil)
}
