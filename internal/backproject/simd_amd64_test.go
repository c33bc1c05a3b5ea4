package backproject

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/cpufeat"
)

// assemblyLanes returns the group widths of the assembly spellings this
// host runs: 8 (AVX2) and 16 (AVX-512). It logs a width it cannot run.
func assemblyLanes(t *testing.T) []int {
	t.Helper()
	logSkippedSpellings(t)
	var widths []int
	if cpufeat.AVX2() {
		widths = append(widths, 8)
	}
	if cpufeat.AVX512() {
		widths = append(widths, 16)
	}
	if len(widths) == 0 {
		t.Skip("no assembly spelling runs on this host")
	}
	return widths
}

// The assembly's window loads — two loads and two permutes per footprint
// edge, for one detector row or, blended per lane, for two adjacent ones —
// must give what its gathers give, which is what the oracle
// and the Go spelling give, on tiles of every height and in both bodies,
// and each way a group's samples can be fetched must be taken somewhere
// among the trials, at each width the host runs: the counts below decide a
// group's fetch from the per-column footprints exactly as SAMPLE does from
// its lanes. The guarded body's windows must be seen to start inside a
// row's left apron, to end in its right one, and to read the zero slot as
// their second or third row. alloc (nil: make) provides the store's
// buffer, of exactly the floats the layout declares readable, so that a
// variant of this test can put an unreadable page right behind it. (In
// this file because its subject is the assembly.)
func testSIMDWindowLoads(t *testing.T, alloc func(n int) []float32) {
	widths := assemblyLanes(t)
	rng := rand.New(rand.NewSource(67))
	const nx = 160
	counts := map[int]map[string]int{}
	for _, lanes := range widths {
		counts[lanes] = map[string]int{}
	}
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
		f0, f1 := tileInterior(t, &a, nx, ax, ay, az, xc, zc, yc)
		if trial%7 < 4 && (f0 != 0 || f1 != nx) {
			t.Fatalf("trial %d: interior [%d,%d) under an all-interior test geometry", trial, f0, f1)
		}
		for _, lanes := range widths {
			countWindowFetches(counts[lanes], &a, lanes, nx, f0, f1, ax, ay, az, xc, zc, yc)
		}
		checkTile(t, fmt.Sprintf("trial %d", trial), &a, nx, f0, f1, ax, ay, az, xc, zc, yc)
	}
	for _, lanes := range widths {
		t.Logf("%d lanes: %v", lanes, counts[lanes])
		for _, name := range []string{"one-row window", "fast two-row blend", "guarded two-row blend", "row-gathering", "wider-than-a-window",
			"left-apron window", "right-apron window", "zero-slot row"} {
			if counts[lanes][name] < 20 {
				t.Errorf("%d lanes: only %d %s groups among the trials", lanes, counts[lanes][name], name)
			}
		}
	}
}

// countWindowFetches counts, into counts, how the assembly of the given
// width fetches each slice of each group of one tile, from the per-column
// footprints, as SAMPLE decides from its lanes.
func countWindowFetches(counts map[string]int, a *projAccess, lanes, nx, f0, f1 int, ax, ay, az, xc, zc float32, yc []float32) {
	iu, iv := make([]int, lanes), make([]int, lanes)
	for _, y := range yc {
		for g := 0; g < nx; g += lanes {
			body := "fast"
			for l := range iu {
				iu[l], iv[l], _ = footprint(g+l, ax, ay, az, xc, y, zc)
			}
			if g < (f0+lanes-1)&^(lanes-1) || g+lanes > f1&^(lanes-1) {
				body = "guarded"
				for l := range iu {
					iu[l], iv[l] = min(max(iu[l], -2), a.nu), min(max(iv[l], a.lo-2), a.hi)
				}
			}
			base, row := min(iu[0], iu[lanes-1]), min(iv[0], iv[lanes-1])
			rows, oneWindow := 1, true
			for l := range iu {
				oneWindow = oneWindow && iu[l] >= base && iu[l] < base+lanes
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
			if base+lanes >= a.nu {
				counts["right-apron window"]++
			}
			if row < a.lo || row+rows >= a.hi {
				counts["zero-slot row"]++
			}
		}
	}
}

func TestSIMDWindowLoadsMatchGathers(t *testing.T) {
	testSIMDWindowLoads(t, nil)
}

// tileInterior is the interior sub-span of columns [0,nx) as rowRec derives
// it for a tile whose slices' v constants are yc: the columns resident in
// every slice, which must be contiguous; (0, 0) when there are none.
func tileInterior(t *testing.T, a *projAccess, nx int, ax, ay, az, xc, zc float32, yc []float32) (f0, f1 int) {
	t.Helper()
	residentAt := func(i int) bool {
		for _, y := range yc {
			if !a.interiorResidentSIMD(i, ax, ay, az, xc, y, zc) {
				return false
			}
		}
		return true
	}
	f0, f1 = 0, nx
	for f0 < f1 && !residentAt(f0) {
		f0++
	}
	for f0 < f1 && !residentAt(f1-1) {
		f1--
	}
	for i := f0; i < f1; i++ {
		if !residentAt(i) {
			t.Fatalf("interior span [%d,%d) not contiguous at %d", f0, f1, i)
		}
	}
	if f0 >= f1 {
		return 0, 0
	}
	return f0, f1
}

// checkTile launches columns [0,nx) of one tile, interior [f0,f1), through
// every spelling and holds each, bit for bit, to the oracle.
func checkTile(t *testing.T, name string, a *projAccess, nx, f0, f1 int, ax, ay, az, xc, zc float32, yc []float32) {
	t.Helper()
	want := make([]float32, len(yc)*nx)
	for k, y := range yc {
		a.perColumn(want[k*nx:(k+1)*nx], 0, 0, nx, ax, ay, az, xc, y, zc)
	}
	for spelling, sub := range a.spellings() {
		got := make([]float32, len(yc)*nx)
		sub.launchOne(got, nx, 0, 0, nx, f0, f1, ax, ay, az, xc, zc, yc)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: slice %d column %d: %s %g != the oracle %g", name, i/nx, i%nx, spelling, got[i], want[i])
			}
		}
	}
}

// cacheExits replays, from the per-column footprints, how the assembly of
// the given width fetches each group of one tile, and counts the ways: a group
// without a window, a tile of one slice and a group whose rows outnumber
// the tile's slices or the cache's take the per-slice fetch (the assembly
// rejects most of them before it bounds the rows, on the first lane's sweep
// of y over the tile: that alone is a lower bound on the rows); any other group's rows are
// blended once (FILL), and each slice of it then reads one cached row, two
// cached rows blended per lane, or hands the group off to the gather. The
// guarded groups whose lanes the clamp put on the zero slot below or above
// the window are counted apart. A slice whose rows the cache does not hold
// — the end slices bound the middle ones unless a guarded lane's row
// overflows the conversion — hands off too.
func cacheExits(a *projAccess, lanes, nx, f0, f1 int, ax, ay, az, xc, zc float32, yc []float32) map[string]int {
	exits := map[string]int{}
	h := len(yc)
	for g := 0; g < nx; g += lanes {
		guarded := g < (f0+lanes-1)&^(lanes-1) || g+lanes > f1&^(lanes-1)
		iu := make([]int, lanes)
		iv := make([][]int, h)
		for k := range iv {
			iv[k] = make([]int, lanes)
		}
		clampedLow, clampedHigh := false, false
		for k, y := range yc {
			for l := range iu {
				u, v, w := simdCoords(g+l, ax, ay, az, xc, y, zc)
				rz := 1 / w
				iu[l], iv[k][l] = cvt32(floor32(u*rz)), cvt32(floor32(v*rz))
				if guarded {
					clampedLow = clampedLow || iv[k][l] < a.lo-2
					clampedHigh = clampedHigh || iv[k][l] > a.hi
					iu[l], iv[k][l] = min(max(iu[l], -2), a.nu), min(max(iv[k][l], a.lo-2), a.hi)
				}
			}
		}
		base := min(iu[0], iu[lanes-1])
		window := true
		for l := range iu {
			window = window && iu[l] >= base && iu[l] < base+lanes
		}
		// The 8-lane FILL bounds the rows from every lane of the end
		// slices, the 16-lane one from their first and last lanes.
		bounding := []int{0, lanes - 1}
		if lanes == 8 {
			bounding = []int{0, 1, 2, 3, 4, 5, 6, 7}
		}
		rmin, rmax := iv[0][0], iv[0][0]
		for _, k := range []int{0, h - 1} {
			for _, l := range bounding {
				rmin, rmax = min(rmin, iv[k][l]), max(rmax, iv[k][l])
			}
		}
		n := rmax - rmin + 2
		switch {
		case !window:
			exits["no window"]++
			continue
		case h == 1:
			exits["one slice"]++
			continue
		case n > cacheRows:
			exits["more rows than the cache holds"]++
			continue
		case n > h:
			exits["more rows than slices"]++
			continue
		}
		if clampedLow {
			exits["cached, clamped to the lower zero slot"]++
		}
		if clampedHigh {
			exits["cached, clamped to the upper zero slot"]++
		}
		cached := func(r, rows int) bool { return r >= rmin && r+rows <= rmax+2 }
	slices:
		for k := range iv {
			m := min(iv[k][0], iv[k][lanes-1])
			rows := 1
			for l := range iu {
				switch {
				case iv[k][l] != iv[k][0] && (iv[k][l] < m || iv[k][l] > m+1):
					rows = 3
				case iv[k][l] != iv[k][0] && rows < 3:
					rows = 2
				}
			}
			switch {
			case rows == 1 && cached(m, 2):
				exits["one cached row"]++
			case rows == 2 && cached(m, 3):
				exits["two cached rows"]++
			case rows == 1:
				exits["hands off: one row, not cached"]++
				break slices
			case rows == 2:
				exits["hands off: two rows, not all cached"]++
				break slices
			case k == 0:
				exits["hands off in the first slice"]++
				break slices
			default:
				exits["hands off mid-tile"]++
				break slices
			}
		}
	}
	return exits
}

// cvt32 is VCVTTPS2DQ on one lane: a float outside the int32 range, or a
// NaN, converts to the integer indefinite, math.MinInt32.
func cvt32(f float32) int {
	if !(f >= math.MinInt32 && f < math.MaxInt32) {
		return math.MinInt32
	}
	return int(f)
}

// Every exit of the assembly's row cache must compute what the Go spelling
// and the oracle compute, bit for bit: each tile below is built to take the
// exit it names at least once at each width the host runs (cacheExits
// checks that it does), in tiles of 1, 2, 4, 8, 12 and 16 slices.
func TestSIMDRowCacheExits(t *testing.T) {
	widths := assemblyLanes(t)
	a := projAccess{nu: 160, np: 1, lo: 0, hi: 48}
	a.data = make([]float32, a.nu*(a.hi-a.lo))
	rng := rand.New(rand.NewSource(41))
	for i := range a.data {
		a.data[i] = float32(rng.NormFloat64())
	}
	a.buildRowTable()
	if !a.prepareSIMD() {
		t.Fatal("prepareSIMD refused a small buffer")
	}
	const nx = 64
	// x = (pitch·i + x0)·zc·rz and y = (climb·i + y0 + dy·k)·zc·rz, with
	// w = az·i + zc: a tilt az ≠ 0 widens a group's spread of y as y grows.
	for _, tile := range []struct {
		want                         string
		h                            int
		pitch, climb, az, x0, y0, dy float64
		zc                           float64   // 0: 1.1
		ys                           []float64 // y0 + dy·k when nil
	}{
		{"one slice", 1, 0.8, 0, 0, 20, 10, 0, 0, nil},
		{"one cached row", 2, 0.8, 0.004, 0, 20, 10.2, 0.1, 0, nil},
		{"one cached row", 16, 0.8, 0.004, 0, 20, 10.2, 0.1, 0, nil},
		{"more rows than slices", 4, 0.8, 0.004, 0, 20, 10.2, 1.5, 0, nil},
		{"more rows than the cache holds", 16, 0.8, 0.004, 0, 20, 10.2, 0.75, 0, nil},
		{"two cached rows", 8, 0.8, 0.05, 0, 20, 10.1, 0.3, 0, nil},
		{"hands off mid-tile", 12, 1, 0, 0.067, 20, 2, 0.55, 0, nil},
		{"no window", 8, 1.2, 0.004, 0, 20, 10.2, 0.1, 0, nil},
		{"cached, clamped to the lower zero slot", 12, 0.8, 0.004, 0, 20, -3.5, 0.3, 0, nil},
		{"cached, clamped to the upper zero slot", 12, 0.8, 0.004, 0, 20, 46.5, 0.3, 0, nil},
		// w = −10⁻⁸: y climbs a row, then past 2³¹, which the conversion
		// makes the integer indefinite and the clamp row lo−2, below the
		// rows of the slices before it. The end slices' rows (lo−2 … 5) do
		// not bound slice 14's: it must hand off, not read row 7 from past
		// the rows FILL wrote, where earlier launches left other blends.
		// (w < 0 keeps FILL's first test, the first lane's sweep
		// |Δv|·rz₀ ≥ h − 1, from rejecting the group before that.)
		{"hands off: one row, not cached", 16, 0.8, 0, 0, 20, 0, 0, -1e-8,
			[]float64{5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 5.5, 6.5, 3e9}},
		{"hands off: two rows, not all cached", 16, 0.8, 0.06, 0, 20, 0, 0, -1e-8,
			[]float64{5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.7, 3e9}},
	} {
		name := fmt.Sprintf("%s, %d slices", tile.want, tile.h)
		zd := cmp.Or(tile.zc, 1.1)
		ax, ay := float32(tile.pitch*zd), float32(tile.climb*zd)
		az, xc, zc := float32(tile.az), float32(tile.x0*zd), float32(zd)
		yc := make([]float32, tile.h)
		for k := range yc {
			y := tile.y0 + tile.dy*float64(k)
			if tile.ys != nil {
				y = tile.ys[k]
			}
			yc[k] = float32(y * zd)
		}
		f0, f1 := tileInterior(t, &a, nx, ax, ay, az, xc, zc, yc)
		for _, lanes := range widths {
			exits := cacheExits(&a, lanes, nx, f0, f1, ax, ay, az, xc, zc, yc)
			t.Logf("%s, %d lanes: interior [%d,%d), %v", name, lanes, f0, f1, exits)
			if exits[tile.want] == 0 {
				t.Errorf("%s, %d lanes: the tile never takes its exit: %v", name, lanes, exits)
			}
		}
		checkTile(t, name, &a, nx, f0, f1, ax, ay, az, xc, zc, yc)
	}
}
