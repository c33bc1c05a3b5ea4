package backproject

import (
	"math/rand"
	"testing"

	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The hoist rests on a property of the matrices, so it is held to every
// geometry the repository ships, centre offsets included: u and w never
// depend on z. A tilt breaks it, and newProjConsts must see that.
func TestShippedGeometriesAreZInvariant(t *testing.T) {
	a := projAccess{nu: 8, lo: 0, hi: 8}
	for _, ds := range dataset.All() {
		scaled, err := ds.Scaled(16)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := scaled.System(32)
		if err != nil {
			t.Fatal(err)
		}
		for s, m := range kernelMats(sys) {
			if pc := a.newProjConsts(s, &m, sys.NX); !pc.zInvariant {
				t.Fatalf("%s projection %d: u or w depends on z (R0[2]=%g, R2[2]=%g)", ds.Name, s, m.R0[2], m.R2[2])
			}
			m.R2[2] = 1e-4
			if pc := a.newProjConsts(s, &m, sys.NX); pc.zInvariant {
				t.Fatalf("%s projection %d: tilted matrix passed as z-invariant", ds.Name, s)
			}
		}
	}
}

// A k-tile launch must produce, byte for byte, what one launch per row
// produces — the slab cut into one-slice slabs, which tiles cannot span —
// whatever the centre offsets, wherever the readable window clips (a
// random run of detector rows, often short of what the slab projects to
// and often ending at the detector's first or last row), through a ring
// that wraps, for slab heights that are no multiple of zBlock and 1–3
// workers. A tilted matrix, whose u and w move with z,
// must come out the same too: its tiles are one slice high. Both spellings
// are additionally held to the oracle, which knows nothing of spans, tiles
// or windows of samples — and so to each other. The ledger's sample classes must keep partitioning the
// updates.
func TestTileLaunchMatchesPerRow(t *testing.T) {
	forRecurrenceKernels(t, testTileLaunchMatchesPerRow)
}

func testTileLaunchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	var tilted, wrapped, clippedLo, clippedHi int
	for trial := 0; trial < 40; trial++ {
		sys := testSystem()
		sys.NX = 24 + rng.Intn(30)
		sys.SigmaU = rng.NormFloat64() * 6
		sys.SigmaV = rng.NormFloat64() * 6
		sys.SigmaCOR = rng.NormFloat64() * 0.5
		stack := randomStack(sys, int64(trial))
		mats := kernelMats(sys)
		tilt := trial%4 == 3
		if tilt {
			tilted++
			for s := range mats {
				mats[s].R0[2] = float32(rng.NormFloat64() * 0.02)
				mats[s].R2[2] = float32(rng.NormFloat64() * 1e-4)
			}
		}

		nz := 1 + rng.Intn(13)
		z0 := rng.Intn(sys.NZ - nz + 1)
		need := sys.ComputeAB(z0, z0+nz)
		rows := geometry.RowRange{Lo: max(0, need.Lo+rng.Intn(5)-2), Hi: min(sys.NV, need.Hi+rng.Intn(5)-2)}
		switch trial % 5 {
		case 0:
			rows.Lo = 0
		case 1:
			rows.Hi = sys.NV
		}
		if rows.Hi <= rows.Lo {
			rows = need
		}
		if rows.Lo == 0 {
			clippedLo++
		}
		if rows.Hi == sys.NV {
			clippedHi++
		}
		depth := rows.Len() + rng.Intn(3)
		if rows.Lo%depth+rows.Len() > depth {
			wrapped++
		}
		dev := device.New("tile", 0, 1+trial%3)
		ring, err := device.NewProjRing(dev, sys.NU, sys.NP, depth)
		if err != nil {
			t.Fatal(err)
		}
		if err := ring.LoadRows(stack, rows); err != nil {
			t.Fatal(err)
		}

		got, _ := volume.NewSlab(sys.NX, sys.NY, nz, z0)
		if err := Streaming(dev, ring, mats, got, geometry.RowRange{}); err != nil {
			t.Fatal(err)
		}
		l := dev.Snapshot()
		if sum, updates := l.InteriorSamples+l.BorderSamples+l.SkippedSamples, int64(got.Voxels())*int64(sys.NP); sum != updates {
			t.Fatalf("trial %d: interior %d + border %d + skipped %d = %d, want the %d updates",
				trial, l.InteriorSamples, l.BorderSamples, l.SkippedSamples, sum, updates)
		}

		perRow, _ := volume.NewSlab(sys.NX, sys.NY, nz, z0)
		one := device.New("row", 0, 1)
		for k := 0; k < nz; k++ {
			slice, _ := volume.NewSlab(sys.NX, sys.NY, 1, z0+k)
			if err := Streaming(one, ring, mats, slice, geometry.RowRange{}); err != nil {
				t.Fatal(err)
			}
			if err := perRow.CopySlabFrom(slice); err != nil {
				t.Fatal(err)
			}
		}
		oracle, _ := volume.NewSlab(sys.NX, sys.NY, nz, z0)
		ringAccess(ring, nil).reference(mats, oracle)
		refs := map[string]*volume.Volume{"one launch per row": perRow, "the oracle": oracle}
		ring.Close()
		for name, want := range refs {
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d (nz %d at %d, rows %v of %v, depth %d, %d workers, tilt %v): voxel %d: tile launch %g != %s %g",
						trial, nz, z0, rows, need, depth, 1+trial%3, tilt, i, got.Data[i], name, want.Data[i])
				}
			}
		}
	}
	for name, n := range map[string]int{"tilted": tilted, "ring-wrapping": wrapped, "first-row": clippedLo, "last-row": clippedHi} {
		if n < 5 {
			t.Errorf("only %d %s trials", n, name)
		}
	}
}

// rowSpans over a k-tile must be sound for every slice whose v constant
// lies between the end slices': each column of the interior resident, each
// column outside the support provably zero, under the kernel's own
// arithmetic. The trial mix is TestRowSpansMatchUnhoisted's, with the
// tile's sweep of v running from nothing to well past the window's height —
// where the end slices miss the window on opposite sides and only the
// slices between them see it.
func TestTileSpansSound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var interior, outside, straddling int
	for trial := 0; trial < 20000; trial++ {
		a := projAccess{nu: 2 + rng.Intn(96), lo: rng.Intn(8)}
		a.hi = a.lo + rng.Intn(60)
		a.win = a.newSpanWindow()
		nx := 1 + rng.Intn(128)
		zc := float32(0.5 + rng.Float64())
		ax := float32(rng.NormFloat64()*0.6) * zc
		ay := float32(rng.NormFloat64()*0.3) * zc
		az := float32(rng.NormFloat64() * 0.002)
		xc := float32(rng.NormFloat64()*float64(a.nu)*0.7+float64(a.nu)/2) * zc
		ya := float32(rng.NormFloat64()*float64(a.hi-a.lo+2)*0.7+float64(a.lo+a.hi)/2) * zc
		yb := ya + float32(rng.NormFloat64()*8)*zc
		if trial%8 == 0 {
			yb = ya + float32(a.hi-a.lo+6)*zc*float32(1+rng.Float64())
			ya -= 4 * zc
		}
		const slices = 7
		var yc [slices]float32
		for k := range yc {
			yc[k] = min(max(ya+(yb-ya)*float32(k)/(slices-1), min(ya, yb)), max(ya, yb))
		}
		yc[slices-1] = yb
		m := geometry.Mat34x4{R0: [4]float32{ax}, R1: [4]float32{ay}, R2: [4]float32{az}}
		pc := a.newProjConsts(0, &m, nx)
		c0, i0, i1, c1 := a.rowSpans(&pc, xc, ya, yb, zc, nx)
		if c0 == 0 && c1 == nx && i0 == i1 {
			continue // z may cross: everything covered, nothing interior
		}
		if _, _, _, e1 := a.rowSpans(&pc, xc, ya, ya, zc, nx); e1 == 0 && c0 < c1 {
			if _, _, _, e1 := a.rowSpans(&pc, xc, yb, yb, zc, nx); e1 == 0 {
				straddling++
			}
		}
		for i := 0; i < nx; i++ {
			in, covered := i >= i0 && i < i1, i >= c0 && i < c1
			if in && !covered {
				t.Fatalf("trial %d: interior [%d,%d) outside support [%d,%d)", trial, i0, i1, c0, c1)
			}
			allResident, allZero := true, true
			for _, y := range yc {
				iu, iv, finite := footprint(i, ax, ay, az, xc, y, zc)
				allResident = allResident && a.resident(iu, iv)
				allZero = allZero && finite && (iu < -1 || iu >= a.nu || iv < a.lo-1 || iv >= a.hi)
			}
			// The spans, and the predicates their endpoint walks trust.
			claimsResident := in || a.interiorResident(i, ax, ay, az, xc, min(ya, yb), max(ya, yb), zc)
			claimsZero := !covered || a.zeroContrib(i, ax, ay, az, xc, min(ya, yb), max(ya, yb), zc)
			if claimsResident {
				interior++
			}
			if claimsZero {
				outside++
			}
			if claimsResident && !allResident || claimsZero && !allZero {
				t.Fatalf("trial %d: column %d (interior [%d,%d), support [%d,%d)) claimed resident=%v zero=%v, is resident=%v zero=%v in the slices of tile %g..%g; window nu=%d rows=[%d,%d)",
					trial, i, i0, i1, c0, c1, claimsResident, claimsZero, allResident, allZero, ya, yb, a.nu, a.lo, a.hi)
			}
		}
	}
	for name, n := range map[string]int{"resident": interior, "zero": outside} {
		if n < 100000 {
			t.Errorf("only %d columns claimed %s among the trials", n, name)
		}
	}
	if straddling < 100 {
		t.Errorf("only %d tiles whose end slices both miss a window the tile covers", straddling)
	}
}
