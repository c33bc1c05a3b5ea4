package backproject

import (
	"math/rand"
	"testing"
)

// The assembly's window loads — two loads and two permutes per footprint
// edge — must give what its gathers give, which is what the per-column
// definition and the Go spelling give, on tiles of every height, and each
// of the conditions that sends a group or a slice back to the gathers must
// hold somewhere among the trials: a group spanning more than the eight
// columns a window holds (coarse voxels), a slice whose eight lanes straddle
// detector rows, and a window that would end past the projection buffer,
// next to the last one that does not. alloc provides the sample buffer, so
// that a variant of this test can put an unreadable page right behind it.
// (In this file because its subject is the assembly.)
func testSIMDWindowLoads(t *testing.T, alloc func(n int) []float32) {
	if !simdAvailable() {
		t.Skip("no usable AVX2")
	}
	rng := rand.New(rand.NewSource(67))
	const nx = 160
	var windows, lastWindow, coarse, straddling, pastEnd int
	for trial := 0; trial < 80; trial++ {
		a := projAccess{nu: 240, np: 1, lo: 0, hi: 60}
		a.data = alloc(a.nu * (a.hi - a.lo))
		for i := range a.data {
			a.data[i] = float32(rng.NormFloat64())
		}
		a.buildRowTable()
		if !a.prepareSIMD() {
			t.Fatal("prepareSIMD refused a small buffer")
		}
		// Columns [0,nx) land inside the detector; w ≈ 1 ± 0.1, so the
		// reciprocal varies lane to lane. x climbs 0.8 px per column (a
		// group spans 5.6 px: one window) or 1.2 (8.4 px: none); y is
		// almost level, or climbs 0.2 px per column and changes row inside
		// most groups. Every fourth trial ends in the detector's last
		// columns of its last two rows, the end of the buffer.
		az := float32((rng.Float64() - 0.5) * 0.001)
		zc := float32(1 + rng.Float64()*0.2)
		pitch, climb := 0.8, 0.004
		switch trial % 4 {
		case 1:
			pitch = 1.2
		case 2:
			climb = 0.2
		}
		ax := float32(pitch+rng.Float64()*0.01) * zc
		xc := float32(2+rng.Float64()*3) * zc
		ay := float32(climb) * zc
		yc0 := float32(3+rng.Float64()*3) * zc
		dyc := float32(0.3+rng.Float64()) * zc
		h := 1 + trial%zBlock
		if trial%4 == 3 {
			// The last column's footprint is the detector's last two
			// columns; the group's first lands 5.6 to 6.9 px before it, so
			// the window starts on, or one or two past, the last float it
			// may start on.
			az, ay = 0, 0
			ax = float32([]float64{0.8, 0.9, 0.99}[trial/4%3]) * zc
			xc = (float32(a.nu)-1.05-0.9*rng.Float32())*zc - ax*(nx-1)
			yc0 = (float32(a.hi) - 1.9) * zc
			dyc = 0.01 * zc
		}
		yc := make([]float32, h)
		for k := range yc {
			yc[k] = yc0 + dyc*float32(k)
		}
		for _, y := range yc {
			for i := 0; i < nx; i++ {
				if !a.interiorResidentSIMD(i, ax, ay, az, xc, y, zc) {
					t.Fatalf("trial %d: column %d not resident at yc %g under test geometry", trial, i, y)
				}
			}
		}
		var args simdRowArgs
		a.initSpanArgs(&args, 0, ax, ay, az)
		for _, y := range yc {
			for g := 0; g < nx; g += simdLanes {
				var iu, iv [simdLanes]int
				for l := range iu {
					iu[l], iv[l], _ = footprint(g+l, ax, ay, az, xc, y, zc)
				}
				base := min(iu[0], iu[simdLanes-1])
				oneRow, oneWindow := true, true
				for l := range iu {
					oneRow = oneRow && iv[l] == iv[0]
					oneWindow = oneWindow && iu[l] >= base && iu[l] < base+simdLanes
				}
				switch {
				case !oneWindow:
					coarse++
				case !oneRow:
					straddling++
				case int64(base) > args.winMax:
					pastEnd++
				case int64(base) == args.winMax:
					lastWindow++
				default:
					windows++
				}
			}
		}
		want := make([]float32, h*nx)
		for k, y := range yc {
			a.perColumn(want[k*nx:(k+1)*nx], 0, 0, nx, ax, ay, az, xc, y, zc)
		}
		for name, sub := range a.spellings() {
			got := make([]float32, h*nx)
			sub.launchSpan(&args, got, nx, 0, nx, 0, nx, xc, zc, yc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: slice %d column %d: %s %g != per-column definition %g", trial, i/nx, i%nx, name, got[i], want[i])
				}
			}
		}
	}
	for name, n := range map[string]int{"one-window": windows, "wider-than-a-window": coarse, "row-straddling": straddling, "past-the-buffer": pastEnd, "last-window": lastWindow} {
		if n < 20 {
			t.Errorf("only %d %s groups among the trials", n, name)
		}
	}
}

func TestSIMDWindowLoadsMatchGathers(t *testing.T) {
	testSIMDWindowLoads(t, func(n int) []float32 { return make([]float32, n) })
}
