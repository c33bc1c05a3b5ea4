package backproject

import (
	"fmt"
	"math/rand"
	"testing"

	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// benchRow is the long all-interior row the kernel benchmarks time: a
// nearly-centered geometry where x sweeps most of the detector width, y
// drifts slowly and z is positive and nearly flat. It returns the access,
// the row's interior span in h slices (v's constant stepping by a tenth of
// a detector row per slice) and a launch of a sub-span of it into them
// through the spelling a.arith names (the Go one unless the caller sets
// another).
func benchRow(b *testing.B, h int) (a *projAccess, f0, f1 int, launch func(c0, c1 int)) {
	const nu, nv, nx = 256, 256, 4096
	a = &projAccess{nu: nu, np: 1, lo: 0, hi: nv}
	a.data = make([]float32, nu*nv)
	rng := rand.New(rand.NewSource(1))
	for i := range a.data {
		a.data[i] = rng.Float32()
	}
	a.buildRowTable()
	if !a.prepareSIMD() {
		b.Fatal("prepareSIMD refused a small buffer")
	}
	a.win = a.newSpanWindow()
	m := geometry.Mat34x4{R0: [4]float32{0.05}, R1: [4]float32{0.004}, R2: [4]float32{0.00001}}
	xc, yc, zc := float32(8), float32(40), float32(1.02)
	ycs := make([]float32, h)
	for k := range ycs {
		ycs[k] = yc + 0.1*float32(k)
	}
	pc := a.newProjConsts(0, &m, nx)
	_, f0, f1, _ = a.rowSpans(&pc, xc, ycs[0], ycs[h-1], zc, nx)
	if f1-f0 < nx/2 {
		b.Fatalf("span too small: [%d,%d)", f0, f1)
	}
	out := make([]float32, h*nx)
	var args tileArgs
	a.initTileArgs(&args, nx, new(rowCache))
	args.h = int64(h)
	a.addEntry(&args, 0, f0, f1, f0, f1, m.R0[0], m.R1[0], m.R2[0], xc, zc, ycs)
	return a, f0, f1, func(c0, c1 int) {
		e := &args.ent[0]
		e.c0, e.c1, e.f0, e.f1 = int64(c0), int64(c1), int64(c0), int64(c1)
		args.c0, args.c1 = e.c0, e.c1
		a.launchTile(&args, out)
	}
}

// BenchmarkFusedInterior isolates the Go spelling's unguarded body — what a
// launch that cannot run the assembly falls back to — on a long
// all-interior row: in one slice, which is how a tilted (not zInvariant)
// matrix is walked, and in a k-tile of zBlock slices, which is how every
// shipped geometry is.
func BenchmarkFusedInterior(b *testing.B) {
	for _, h := range []int{1, zBlock} {
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			_, f0, f1, launch := benchRow(b, h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				launch(f0, f1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64((f1-f0)*h), "ns/sample")
		})
	}
}

// assemblySpellings returns the assembly spellings this host runs.
func assemblySpellings() []device.Arithmetic { return hostSpellings()[1:] }

// BenchmarkFusedInteriorSIMD times each assembly spelling on the same row
// in one slice, the apples-to-apples twin of BenchmarkFusedInterior/h1.
func BenchmarkFusedInteriorSIMD(b *testing.B) {
	for _, arith := range assemblySpellings() {
		b.Run(arith.String(), func(b *testing.B) {
			a, f0, f1, launch := benchRow(b, 1)
			a.arith = arith
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				launch(f0, f1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f1-f0), "ns/sample")
		})
	}
}

// BenchmarkFusedInteriorSIMDSpans times each assembly spelling over span
// lengths from 38 samples to the whole row, so a fixed per-call cost shows
// as ns/sample falling with span length.
func BenchmarkFusedInteriorSIMDSpans(b *testing.B) {
	for _, arith := range assemblySpellings() {
		a, f0, f1, launch := benchRow(b, 1)
		a.arith = arith
		for _, span := range []int{38, 64, 128, 512, f1 - f0 - 3} {
			b.Run(fmt.Sprintf("%s/span%d", arith, span), func(b *testing.B) {
				s0 := f0 + 3
				s1 := s0 + span
				if s1 > f1 {
					b.Fatal("span too long")
				}
				for i := 0; i < b.N; i++ {
					launch(s0, s1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(span), "ns/sample")
			})
		}
	}
}

// BenchmarkBlockLaunch times what one block of projBlock projections costs
// one row of a k-tile: the block's entries (row constants, spans and
// counters, through the span solve the host runs) and one launch of each
// assembly spelling the host runs, as accumulateSlices makes them for one
// worker. The row is the middle row of the middle slab
// of the benchmark's single-kernel shape (tomo_00030 at -div 8, 96³,
// 12-slice slabs) and of its single-filter shape (24³, 3-slice slabs), over
// a ring holding the slab's detector rows of random samples; the block
// steps through the shape's whole blocks from one launch to the next.
// ns/launch is per block, ns/update divides by the tile's voxels times the
// block's projections, nx·h·projBlock.
func BenchmarkBlockLaunch(b *testing.B) {
	for _, shape := range []struct {
		name string
		n    int
	}{{"single-kernel", 96}, {"single-filter", 24}} {
		for _, arith := range assemblySpellings() {
			b.Run(shape.name+"/"+arith.String(), func(b *testing.B) {
				ds, err := dataset.ByName("tomo_00030")
				if err != nil {
					b.Fatal(err)
				}
				scaled, err := ds.Scaled(8)
				if err != nil {
					b.Fatal(err)
				}
				sys, err := scaled.System(shape.n)
				if err != nil {
					b.Fatal(err)
				}
				nz := shape.n / 8
				z0 := nz * 4
				rows := sys.ComputeAB(z0, z0+nz)
				dev := device.New("bench", 0, 1)
				ring, err := device.NewProjRing(dev, sys.NU, sys.NP, rows.Len())
				if err != nil {
					b.Fatal(err)
				}
				defer ring.Close()
				if err := ring.LoadRows(randomStack(sys, 5), rows); err != nil {
					b.Fatal(err)
				}
				a := ringAccess(ring, nil)
				if !a.prepareSIMD() {
					b.Fatal("prepareSIMD refused the ring")
				}
				a.arith, a.win = arith, a.newSpanWindow()
				mats := kernelMats(sys)
				blocks := make([][]projConsts, sys.NP/projBlock)
				lanes := make([]*blockLanes, len(blocks))
				for i := range blocks {
					blocks[i] = make([]projConsts, projBlock)
					for k := range blocks[i] {
						s := i*projBlock + k
						blocks[i][k] = a.newProjConsts(s, &mats[s], sys.NX)
					}
					if hostArithmetic() == device.ArithmeticAVX512 {
						lanes[i] = new(blockLanes)
						a.initLanes(lanes[i], sys.NX)
						lanes[i].load(blocks[i])
					}
				}
				h := tileHeight(nz, 1)
				kf := make([]float32, h)
				for k := range kf {
					kf[k] = float32(z0 + k)
				}
				stride := sys.NX * sys.NY
				out := make([]float32, h*stride)
				var args tileArgs
				a.initTileArgs(&args, stride, new(rowCache))
				var ctr kernelCounters
				j := sys.NY / 2
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.tileRec(&args, out[j*sys.NX:], stride, blocks[i%len(blocks)], lanes[i%len(blocks)], float32(j), kf, sys.NX, &ctr)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns, "ns/launch")
				b.ReportMetric(ns/float64(sys.NX*h*projBlock), "ns/update")
				b.ReportMetric(float64(h), "slices")
			})
		}
	}
}

// BenchmarkStreamingSlab times the kernel as a reconstruction calls it: the
// eight slabs of tomo_00030 at -div 8, each back-projected by one Streaming
// call on one worker from a ring holding the slab's detector rows of random
// samples, once per spelling the host runs (the host's features masked down
// to it). The shapes are the single-kernel one (96³, 12-slice slabs), the
// single-filter one (24³, 3-slice slabs) and the narrow widths around it
// (32, 16 and 8 columns; at 16 and 8 no detector row sees the end slabs,
// which launch nothing, as in a reconstruction). Unlike benchRow's
// synthetic row, the tiles here read the detector rows the benchmark's
// geometry makes them read, so a change to how a launch fetches its rows
// shows as it will end to end. ns/update divides by the launched slabs'
// voxels times projections.
func BenchmarkStreamingSlab(b *testing.B) {
	for _, n := range []int{96, 32, 24, 16, 8} {
		ds, err := dataset.ByName("tomo_00030")
		if err != nil {
			b.Fatal(err)
		}
		scaled, err := ds.Scaled(8)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := scaled.System(n)
		if err != nil {
			b.Fatal(err)
		}
		stack := randomStack(sys, 5)
		mats := kernelMats(sys)
		const slabs = 8
		nz := sys.NZ / slabs
		for _, arith := range hostSpellings() {
			b.Run(fmt.Sprintf("n%d/%s", n, arith), func(b *testing.B) {
				defer dispatchOnly(arith)()
				dev := device.New("bench", 0, 1)
				type slab struct {
					ring *device.ProjRing
					rows geometry.RowRange
					vol  *volume.Volume
				}
				var ss []slab
				for i := 0; i < slabs; i++ {
					rows := sys.ComputeAB(i*nz, (i+1)*nz)
					if rows.IsEmpty() {
						continue // no detector row sees the slab: nothing launches
					}
					ring, err := device.NewProjRing(dev, sys.NU, sys.NP, rows.Len())
					if err != nil {
						b.Fatal(err)
					}
					defer ring.Close()
					if err := ring.LoadRows(stack, rows); err != nil {
						b.Fatal(err)
					}
					vol, err := volume.NewSlab(sys.NX, sys.NY, nz, i*nz)
					if err != nil {
						b.Fatal(err)
					}
					ss = append(ss, slab{ring, rows, vol})
				}
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for _, s := range ss {
						if err := Streaming(dev, s.ring, mats, s.vol, s.rows); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				if got := dev.Snapshot().Arithmetic(); got != arith.String() {
					b.Fatalf("the launches ran %q", got)
				}
				updates := float64(sys.NX*sys.NY*nz*len(ss)) * float64(sys.NP)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/updates, "ns/update")
			})
		}
	}
}

// BenchmarkBlockSpans times the making of a launch's entries — each
// projection's row constants, spans and counters — both ways: rowRec a
// projection at a time ("rowrec") and blockSpans512 with the block's
// projections in the lanes ("avx512", on a host that runs it). The launches
// are those of the middle slab of the benchmark's single-kernel shape
// (tomo_00030 at -div 8, 96³, 12-slice slabs) and of its single-filter shape
// (24³, 3-slice slabs), one worker, over the window the slab needs: one
// iteration per (row, block), stepping through the slab's rows and blocks.
// ns/entry divides by the block's projections: the cost of one (row,
// projection) pair of a k-tile, whatever its height.
func BenchmarkBlockSpans(b *testing.B) {
	for _, shape := range []struct {
		name string
		n    int
	}{{"single-kernel", 96}, {"single-filter", 24}} {
		ds, err := dataset.ByName("tomo_00030")
		if err != nil {
			b.Fatal(err)
		}
		scaled, err := ds.Scaled(8)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := scaled.System(shape.n)
		if err != nil {
			b.Fatal(err)
		}
		nz := shape.n / 8
		z0 := nz * 4
		rows := sys.ComputeAB(z0, z0+nz)
		a := projAccess{data: make([]float32, sys.NU*sys.NP), nu: sys.NU, np: sys.NP, sStride: sys.NU, lo: rows.Lo, hi: rows.Hi}
		a.win = a.newSpanWindow()
		mats := kernelMats(sys)
		var blocks [][]projConsts
		var lanes []*blockLanes
		for sb := 0; sb < sys.NP; sb += projBlock {
			block := make([]projConsts, min(projBlock, sys.NP-sb))
			for i := range block {
				block[i] = a.newProjConsts(sb+i, &mats[sb+i], sys.NX)
			}
			l := new(blockLanes)
			a.initLanes(l, sys.NX)
			l.load(block)
			blocks, lanes = append(blocks, block), append(lanes, l)
		}
		kf := make([]float32, tileHeight(nz, 1))
		for k := range kf {
			kf[k] = float32(z0 + k)
		}
		for _, path := range []string{"rowrec", "avx512"} {
			b.Run(shape.name+"/"+path, func(b *testing.B) {
				if path == "avx512" {
					requireBlockSpans(b)
				}
				var args tileArgs
				args.h = int64(len(kf))
				var ctr kernelCounters
				entries := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bi := i % len(blocks)
					jf := float32((i / len(blocks)) % sys.NY)
					if path == "avx512" {
						blockSpans512(&args, lanes[bi], &kf[0], jf, &ctr)
					} else {
						args.n = 0
						for k := range blocks[bi] {
							a.rowRec(&args, &blocks[bi][k], jf, kf, sys.NX, &ctr)
						}
					}
					entries += len(blocks[bi])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
			})
		}
	}
}
