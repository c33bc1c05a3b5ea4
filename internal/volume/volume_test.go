package volume

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 4); err == nil {
		t.Error("expected error for zero NX")
	}
	if _, err := New(4, -1, 4); err == nil {
		t.Error("expected error for negative NY")
	}
	if _, err := NewSlab(4, 4, 4, -2); err == nil {
		t.Error("expected error for negative Z0")
	}
	v, err := New(3, 4, 5)
	if err != nil || v.Voxels() != 60 || v.Bytes() != 240 {
		t.Fatalf("New(3,4,5) = %v, %v", v, err)
	}
}

func TestAtSetSliceLayout(t *testing.T) {
	v, _ := New(4, 3, 2)
	v.Set(1, 2, 1, 42)
	if v.At(1, 2, 1) != 42 {
		t.Fatal("At/Set round trip failed")
	}
	// Z-major layout: index (k*NY+j)*NX+i.
	if v.Data[(1*3+2)*4+1] != 42 {
		t.Fatal("storage layout is not Z-major")
	}
	sl := v.Slice(1)
	if len(sl) != 12 || sl[2*4+1] != 42 {
		t.Fatal("Slice view does not alias storage")
	}
}

func TestFillZeroCloneMinMax(t *testing.T) {
	v, _ := New(2, 2, 2)
	v.Fill(3)
	lo, hi := v.MinMax()
	if lo != 3 || hi != 3 {
		t.Fatalf("MinMax after Fill = %g,%g", lo, hi)
	}
	c := v.Clone()
	c.Set(0, 0, 0, -1)
	if v.At(0, 0, 0) != 3 {
		t.Fatal("Clone shares storage")
	}
	v.Zero()
	if lo, hi := v.MinMax(); lo != 0 || hi != 0 {
		t.Fatalf("MinMax after Zero = %g,%g", lo, hi)
	}
}

func TestAddShapeChecks(t *testing.T) {
	a, _ := New(2, 2, 2)
	b, _ := New(2, 2, 3)
	if err := a.Add(b); err == nil {
		t.Error("expected shape mismatch error")
	}
	c, _ := NewSlab(2, 2, 2, 4)
	if err := a.Add(c); err == nil {
		t.Error("expected origin mismatch error")
	}
	d, _ := New(2, 2, 2)
	d.Fill(1)
	a.Fill(2)
	if err := a.Add(d); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1, 1) != 3 {
		t.Fatalf("Add gave %g, want 3", a.At(1, 1, 1))
	}
}

// Property: Add is commutative and the reduction of N random slabs equals
// the element-wise float32 sum regardless of order (fixed order here; the
// segmented reduce tests exercise tree orders).
func TestAddMatchesElementwiseSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]*Volume, 4)
		want, _ := New(3, 3, 3)
		for p := range parts {
			parts[p], _ = New(3, 3, 3)
			for i := range parts[p].Data {
				parts[p].Data[i] = float32(rng.NormFloat64())
			}
		}
		for i := range want.Data {
			var s float32
			for _, p := range parts {
				s += p.Data[i]
			}
			want.Data[i] = s
		}
		acc := parts[0].Clone()
		for _, p := range parts[1:] {
			if acc.Add(p) != nil {
				return false
			}
		}
		for i := range acc.Data {
			if acc.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCopySlabFrom(t *testing.T) {
	full, _ := New(2, 2, 6)
	slab, _ := NewSlab(2, 2, 2, 2)
	slab.Fill(7)
	if err := full.CopySlabFrom(slab); err != nil {
		t.Fatal(err)
	}
	if full.At(0, 0, 1) != 0 || full.At(0, 0, 2) != 7 || full.At(1, 1, 3) != 7 || full.At(0, 0, 4) != 0 {
		t.Fatal("slab copied to wrong window")
	}
	bad, _ := NewSlab(2, 2, 3, 5)
	if err := full.CopySlabFrom(bad); err == nil {
		t.Error("expected out-of-window error")
	}
	badXY, _ := NewSlab(3, 2, 1, 0)
	if err := full.CopySlabFrom(badXY); err == nil {
		t.Error("expected XY mismatch error")
	}
}

func TestCompare(t *testing.T) {
	a, _ := New(2, 2, 2)
	b, _ := New(2, 2, 2)
	a.Fill(1)
	b.Fill(1)
	b.Set(0, 0, 0, 3)
	s, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MaxAbs-2) > 1e-12 {
		t.Fatalf("MaxAbs = %g, want 2", s.MaxAbs)
	}
	wantRMSE := math.Sqrt(4.0 / 8.0)
	if math.Abs(s.RMSE-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %g, want %g", s.RMSE, wantRMSE)
	}
	if math.Abs(s.MeanA-1) > 1e-12 || math.Abs(s.MeanB-1.25) > 1e-12 {
		t.Fatalf("means = %g,%g", s.MeanA, s.MeanB)
	}
	c, _ := New(2, 2, 3)
	if _, err := Compare(a, c); err == nil {
		t.Error("expected dimension error")
	}
}

// The volume spans more than one of WriteRaw's chunks and does not end on a
// chunk boundary.
func TestRawRoundTrip(t *testing.T) {
	v, _ := NewSlab(41, 37, 13, 7)
	if 4*len(v.Data) <= rawChunkBytes || 4*len(v.Data)%rawChunkBytes == 0 {
		t.Fatalf("%d voxels do not straddle a %d-byte chunk", len(v.Data), rawChunkBytes)
	}
	rng := rand.New(rand.NewSource(2))
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := v.WriteRaw(&buf); err != nil {
		t.Fatal(err)
	}
	// The format is what encoding/binary writes for the header and the
	// voxel slice in one piece each.
	var want bytes.Buffer
	binary.Write(&want, binary.LittleEndian, []int32{rawMagic, 41, 37, 13, 7})
	binary.Write(&want, binary.LittleEndian, v.Data)
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("chunked encoding differs from the one-piece encoding")
	}
	short := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	got, err := ReadRaw(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(v) {
		t.Fatalf("shape %s, want %s", got.ShapeString(), v.ShapeString())
	}
	for i := range v.Data {
		if got.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %g != %g", i, got.Data[i], v.Data[i])
		}
	}
	if _, err := ReadRaw(short); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated volume: %v, want io.ErrUnexpectedEOF", err)
	}
}

// The container's bytes, spelled out: "1KBF" little-endian magic, three
// dimensions, the Z origin, then IEEE-754 voxels, all little-endian.
func TestRawGoldenBytes(t *testing.T) {
	v, _ := NewSlab(2, 1, 1, 3)
	v.Data[0], v.Data[1] = 1, -2.5
	var buf bytes.Buffer
	if err := v.WriteRaw(&buf); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x31, 0x4b, 0x42, 0x46, // magic 0x46424b31
		2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, // NX, NY, NZ
		3, 0, 0, 0, // Z0
		0x00, 0x00, 0x80, 0x3f, // 1
		0x00, 0x00, 0x20, 0xc0, // -2.5
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteRaw wrote % x, want % x", buf.Bytes(), want)
	}
}

func TestRawRejectsBadMagic(t *testing.T) {
	if _, err := ReadRaw(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestSaveLoadRawFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.fbk")
	v, _ := New(2, 2, 2)
	v.Fill(5)
	if err := v.SaveRaw(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 1, 1) != 5 {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadRaw(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected missing-file error")
	}
}

func TestWritePGM(t *testing.T) {
	v, _ := New(3, 2, 1)
	copy(v.Slice(0), []float32{0, 0.5, 1, 1, 0.5, 0})
	var buf bytes.Buffer
	if err := v.WritePGM(&buf, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P5\n3 2\n255\n") {
		t.Fatalf("bad PGM header: %q", s[:12])
	}
	pix := []byte(s[len("P5\n3 2\n255\n"):])
	if len(pix) != 6 || pix[0] != 0 || pix[2] != 255 {
		t.Fatalf("bad PGM payload: %v", pix)
	}
	if err := v.WritePGM(&buf, 5, 0, 1); err == nil {
		t.Error("expected out-of-range slice error")
	}
	// Auto-window and constant-slice paths must not divide by zero.
	c, _ := New(2, 2, 1)
	c.Fill(9)
	buf.Reset()
	if err := c.WritePGM(&buf, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd64(b *testing.B) {
	x, _ := New(64, 64, 64)
	y, _ := New(64, 64, 64)
	y.Fill(1)
	b.SetBytes(x.Bytes())
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}
