package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

func makeStack(nu, np, nv int, seed int64) *projection.Stack {
	s, _ := projection.NewStack(nu, np, nv)
	rng := rand.New(rand.NewSource(seed))
	for i := range s.Data {
		s.Data[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestStackFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "proj.fbp")
	full := makeStack(6, 4, 10, 1)
	if err := WriteStack(path, full); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	nu, np, nv := src.Dims()
	if nu != 6 || np != 4 || nv != 10 {
		t.Fatalf("Dims = %d,%d,%d", nu, np, nv)
	}
	got, err := src.LoadRows(geometry.RowRange{Lo: 0, Hi: 10}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Data {
		if got.Data[i] != full.Data[i] {
			t.Fatalf("sample %d: %g != %g", i, got.Data[i], full.Data[i])
		}
	}
}

// WriteStack encodes through one bounded buffer; stacks below, at and above
// its size, and of odd sample counts, must be the bytes of a header
// and the samples written by binary.Write.
func TestWriteStackMatchesBinaryWrite(t *testing.T) {
	// The second round runs the encoder a big-endian host needs, where
	// this host writes the samples' own bytes: the file must not change.
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{hostLittleEndian, false} {
		hostLittleEndian = le
		for i, dims := range [][3]int{{7, 5, 3}, {64, 16, 16}, {61, 9, 31}, {128, 33, 9}} {
			nu, np, nv := dims[0], dims[1], dims[2]
			st := makeStack(nu, np, nv, int64(i))
			path := filepath.Join(t.TempDir(), "proj.fbp")
			if err := WriteStack(path, st); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			binary.Write(&want, binary.LittleEndian, []int32{projMagic, int32(nu), int32(np), int32(nv)})
			binary.Write(&want, binary.LittleEndian, st.Data)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("little-endian %v, %dx%dx%d (%d bytes of samples): the file differs from binary.Write's", le, nu, np, nv, 4*len(st.Data))
			}
		}
	}
}

// File-backed partial loads must agree exactly with the in-memory source.
func TestFileSourceMatchesMemorySource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "proj.fbp")
	full := makeStack(5, 8, 16, 2)
	if err := WriteStack(path, full); err != nil {
		t.Fatal(err)
	}
	fileSrc, err := OpenStack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fileSrc.Close()
	memSrc := &projection.MemorySource{Full: full}

	cases := []struct {
		rows     geometry.RowRange
		pLo, pHi int
	}{
		{geometry.RowRange{Lo: 0, Hi: 16}, 0, 8},
		{geometry.RowRange{Lo: 3, Hi: 9}, 0, 8}, // full window: one read for the six rows
		{geometry.RowRange{Lo: 3, Hi: 9}, 2, 6},
		{geometry.RowRange{Lo: 15, Hi: 16}, 7, 8},
		{geometry.RowRange{Lo: 5, Hi: 6}, 0, 1},
	}
	// The second round runs the decode a big-endian host needs: on this
	// host it must rewrite every sample with itself.
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{hostLittleEndian, false} {
		hostLittleEndian = le
		for _, tc := range cases {
			a, err := fileSrc.LoadRows(tc.rows, tc.pLo, tc.pHi)
			if err != nil {
				t.Fatalf("file %v: %v", tc, err)
			}
			b, err := memSrc.LoadRows(tc.rows, tc.pLo, tc.pHi)
			if err != nil {
				t.Fatalf("mem %v: %v", tc, err)
			}
			if a.V0 != b.V0 || a.P0 != b.P0 || a.NV != b.NV || a.NP != b.NP {
				t.Fatalf("dims differ: %+v vs %+v", a, b)
			}
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("case %v sample %d: file %g != mem %g", tc, i, a.Data[i], b.Data[i])
				}
			}
		}
	}
}

func TestFileSourceConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "proj.fbp")
	full := makeStack(4, 4, 32, 3)
	if err := WriteStack(path, full); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows := geometry.RowRange{Lo: g * 4, Hi: g*4 + 4}
			st, err := src.LoadRows(rows, 0, 4)
			if err != nil {
				errs[g] = err
				return
			}
			for v := rows.Lo; v < rows.Hi; v++ {
				for p := 0; p < 4; p++ {
					for u := 0; u < 4; u++ {
						if st.At(v, p, u) != full.At(v, p, u) {
							errs[g] = err
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestStackFileErrors(t *testing.T) {
	dir := t.TempDir()
	partial, _ := makeStack(4, 4, 8, 4).ExtractRows(geometry.RowRange{Lo: 2, Hi: 5})
	if err := WriteStack(filepath.Join(dir, "x"), partial); err == nil {
		t.Error("expected non-origin stack error")
	}
	if _, err := OpenStack(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected missing file error")
	}
	// Corrupt magic.
	bad := filepath.Join(dir, "bad.fbp")
	if err := WriteStack(bad, makeStack(2, 2, 2, 5)); err != nil {
		t.Fatal(err)
	}
	raw, _ := filepath.Glob(bad)
	_ = raw
	src, err := OpenStack(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.LoadRows(geometry.RowRange{Lo: 0, Hi: 5}, 0, 2); err == nil {
		t.Error("expected row range error")
	}
	if _, err := src.LoadRows(geometry.RowRange{Lo: 0, Hi: 2}, 1, 1); err == nil {
		t.Error("expected projection window error")
	}
}

// A container that shrinks after OpenStack checked its size must fail the
// load, on the single-read path and the per-row path alike, not hand back
// rows that were never read.
func TestFileSourceShortRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "proj.fbp")
	if err := WriteStack(path, makeStack(4, 4, 8, 6)); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := os.Truncate(path, projHeaderBytes+4*4*4*6); err != nil {
		t.Fatal(err)
	}
	if _, err := src.LoadRows(geometry.RowRange{Lo: 0, Hi: 6}, 0, 4); err != nil {
		t.Fatalf("rows still in the file: %v", err)
	}
	if _, err := src.LoadRows(geometry.RowRange{Lo: 4, Hi: 8}, 0, 4); err == nil {
		t.Error("full-window load past the truncation succeeded")
	}
	if _, err := src.LoadRows(geometry.RowRange{Lo: 4, Hi: 8}, 1, 3); err == nil {
		t.Error("sub-window load past the truncation succeeded")
	}
}

func TestSlabWriterAssemblesVolume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.fbk")
	w, err := NewSlabWriter(path, 4, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Write slabs out of order and concurrently.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for idx, z0 := range []int{8, 0, 4} {
		wg.Add(1)
		go func(idx, z0 int) {
			defer wg.Done()
			slab, _ := volume.NewSlab(4, 3, 4, z0)
			for i := range slab.Data {
				slab.Data[i] = float32(z0*1000 + i)
			}
			errs[idx] = w.WriteSlab(slab)
		}(idx, z0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := volume.LoadRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NX != 4 || got.NY != 3 || got.NZ != 12 {
		t.Fatalf("assembled dims %s", got.ShapeString())
	}
	for _, z0 := range []int{0, 4, 8} {
		for i := 0; i < 4*3*4; i++ {
			want := float32(z0*1000 + i)
			if got.Data[z0*4*3+i] != want {
				t.Fatalf("slab z0=%d sample %d = %g, want %g", z0, i, got.Data[z0*4*3+i], want)
			}
		}
	}
}

// Slabs larger than WriteSlab's encode buffer, and not a multiple of it,
// land byte for byte where volume.WriteRaw puts the same voxels.
func TestSlabWriterMatchesWriteRaw(t *testing.T) {
	const nx, ny, nz, nb = 61, 53, 14, 7
	if nx*ny*nb*4 <= slabChunkBytes || nx*ny*nb*4%slabChunkBytes == 0 {
		t.Fatalf("a %d-byte slab does not straddle the %d-byte chunk", nx*ny*nb*4, slabChunkBytes)
	}
	whole, _ := volume.New(nx, ny, nz)
	rng := rand.New(rand.NewSource(3))
	for i := range whole.Data {
		whole.Data[i] = float32(rng.NormFloat64())
	}
	var want bytes.Buffer
	if err := whole.WriteRaw(&want); err != nil {
		t.Fatal(err)
	}
	// The second round runs the chunked encoder a big-endian host needs,
	// where this host writes each slab's own bytes: the file must not
	// change.
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{hostLittleEndian, false} {
		hostLittleEndian = le
		path := filepath.Join(t.TempDir(), "vol.fbk")
		w, err := NewSlabWriter(path, nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		for _, z0 := range []int{nb, 0} {
			slab, _ := volume.NewSlab(nx, ny, nb, z0)
			copy(slab.Data, whole.Data[z0*nx*ny:])
			if err := w.WriteSlab(slab); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("little-endian %v: slab-assembled file differs from volume.WriteRaw of the same voxels", le)
		}
	}
}

func TestSlabWriterErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewSlabWriter(filepath.Join(dir, "v"), 0, 1, 1); err == nil {
		t.Error("expected dimension error")
	}
	w, err := NewSlabWriter(filepath.Join(dir, "v2"), 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	bad, _ := volume.NewSlab(3, 4, 2, 0)
	if err := w.WriteSlab(bad); err == nil {
		t.Error("expected XY mismatch error")
	}
	deep, _ := volume.NewSlab(4, 4, 4, 6)
	if err := w.WriteSlab(deep); err == nil {
		t.Error("expected window error")
	}
	for _, h := range []volume.Header{{NX: 4, NY: 4, NZ: 8, Z0: -1}, {NX: 4, NY: 4, NZ: 1 << 31}} {
		if _, err := CreateSlabWriter(filepath.Join(dir, "v3"), h); !errors.Is(err, volume.ErrBadHeader) {
			t.Errorf("a writer for %v: %v, want volume.ErrBadHeader", h, err)
		}
	}
	win, err := CreateSlabWriter(filepath.Join(dir, "v4"), volume.Header{NX: 4, NY: 4, NZ: 8, Z0: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Close()
	for _, z0 := range []int{9, 17} { // one slice below the window, one past it
		if err := win.WriteSlab(&volume.Volume{NX: 4, NY: 4, NZ: 2, Z0: z0, Data: make([]float32, 32)}); err == nil {
			t.Errorf("slab at z %d: expected window error", z0)
		}
	}
}

// Abort gives up a run's slabs: the partial file goes and a volume already
// at the final path stays as it was.
func TestSlabWriterAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.fbk")
	if err := os.WriteFile(path, []byte("an earlier volume"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewSlabWriter(path, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	slab, _ := volume.NewSlab(4, 4, 4, 0)
	if err := w.WriteSlab(slab); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + PartialSuffix); !os.IsNotExist(err) {
		t.Errorf("the partial file survived Abort: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "an earlier volume" {
		t.Errorf("Abort touched the final path: %q, %v", got, err)
	}
}

// The load stage's read: the repository benchmark's stack (83 × 88 × 55
// float32, 1.5 MiB) out of the page cache, a batch's share of the rows per
// call over the full projection window.
func BenchmarkFileSourceLoadRows(b *testing.B) {
	path := filepath.Join(b.TempDir(), "proj.fbp")
	if err := WriteStack(path, makeStack(83, 88, 55, 1)); err != nil {
		b.Fatal(err)
	}
	src, err := OpenStack(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	b.SetBytes(83 * 88 * 55 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < 55; lo += 7 {
			if _, err := src.LoadRows(geometry.RowRange{Lo: lo, Hi: min(lo+7, 55)}, 0, 88); err != nil {
				b.Fatal(err)
			}
		}
	}
}
