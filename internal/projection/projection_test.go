package projection

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distfdk/internal/geometry"
)

// fillSequential gives every sample a unique value derived from its global
// (v, p, u) coordinates so layout bugs are detectable.
func fillSequential(s *Stack) {
	for v := s.V0; v < s.V0+s.NV; v++ {
		for p := 0; p < s.NP; p++ {
			for u := 0; u < s.NU; u++ {
				s.Set(v, p, u, encode(v, s.P0+p, u))
			}
		}
	}
}

func encode(v, p, u int) float32 { return float32(v*1_000_000 + p*1_000 + u) }

func TestNewStackValidation(t *testing.T) {
	if _, err := NewStack(0, 1, 1); err == nil {
		t.Error("expected error for zero NU")
	}
	if _, err := NewStack(1, -1, 1); err == nil {
		t.Error("expected error for negative NP")
	}
	s, err := NewStack(4, 3, 2)
	if err != nil || s.Pixels() != 24 || s.Bytes() != 96 {
		t.Fatalf("NewStack: %v %v", s, err)
	}
}

func TestStackLayoutIsVPU(t *testing.T) {
	s, _ := NewStack(4, 3, 2)
	s.Set(1, 2, 3, 42)
	// (v,p,u) row-major: index ((v-V0)*NP+p)*NU+u.
	if s.Data[(1*3+2)*4+3] != 42 {
		t.Fatal("storage layout is not (v,p,u) row-major")
	}
	row, err := s.Row(1, 2)
	if err != nil || row[3] != 42 {
		t.Fatalf("Row view wrong: %v %v", row, err)
	}
	if s.At(1, 2, 3) != 42 {
		t.Fatal("At mismatch")
	}
}

func TestRowBounds(t *testing.T) {
	s, _ := NewStack(4, 3, 2)
	s.V0 = 10
	for _, c := range [][2]int{{9, 0}, {12, 0}, {10, -1}, {10, 3}} {
		if _, err := s.Row(c[0], c[1]); err == nil {
			t.Errorf("Row(%d,%d): expected error", c[0], c[1])
		}
	}
	if _, err := s.Row(11, 2); err != nil {
		t.Errorf("Row(11,2): %v", err)
	}
}

func TestExtractRows(t *testing.T) {
	s, _ := NewStack(5, 4, 8)
	fillSequential(s)
	sub, err := s.ExtractRows(geometry.RowRange{Lo: 2, Hi: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sub.V0 != 2 || sub.NV != 4 || sub.NP != 4 || sub.NU != 5 {
		t.Fatalf("sub dims wrong: %+v", sub)
	}
	for v := 2; v < 6; v++ {
		for p := 0; p < 4; p++ {
			for u := 0; u < 5; u++ {
				if sub.At(v, p, u) != encode(v, p, u) {
					t.Fatalf("sample (%d,%d,%d) corrupted", v, p, u)
				}
			}
		}
	}
	// Extraction is a copy, not a view.
	sub.Set(2, 0, 0, -1)
	if s.At(2, 0, 0) == -1 {
		t.Fatal("ExtractRows aliases parent storage")
	}
	if _, err := s.ExtractRows(geometry.RowRange{Lo: 6, Hi: 10}); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := s.ExtractRows(geometry.RowRange{}); err == nil {
		t.Error("expected empty-range error")
	}
}

func TestExtractProjections(t *testing.T) {
	s, _ := NewStack(3, 6, 4)
	fillSequential(s)
	sub, err := s.ExtractProjections(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.P0 != 2 || sub.NP != 3 || sub.NV != 4 {
		t.Fatalf("sub dims wrong: %+v", sub)
	}
	for v := 0; v < 4; v++ {
		for p := 0; p < 3; p++ {
			for u := 0; u < 3; u++ {
				if sub.At(v, p, u) != encode(v, 2+p, u) {
					t.Fatalf("sample (%d,%d,%d) = %g, want %g", v, p, u, sub.At(v, p, u), encode(v, 2+p, u))
				}
			}
		}
	}
	if _, err := s.ExtractProjections(4, 4); err == nil {
		t.Error("expected empty-window error")
	}
	if _, err := s.ExtractProjections(-1, 2); err == nil {
		t.Error("expected negative-window error")
	}
}

func TestMemorySource(t *testing.T) {
	full, _ := NewStack(4, 8, 10)
	fillSequential(full)
	src := &MemorySource{Full: full}
	nu, np, nv := src.Dims()
	if nu != 4 || np != 8 || nv != 10 {
		t.Fatalf("Dims = %d,%d,%d", nu, np, nv)
	}
	part, err := src.LoadRows(geometry.RowRange{Lo: 3, Hi: 7}, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if part.V0 != 3 || part.NV != 4 || part.P0 != 2 || part.NP != 4 {
		t.Fatalf("partial dims wrong: %+v", part)
	}
	if part.At(5, 1, 2) != encode(5, 3, 2) {
		t.Fatal("partial load returned wrong data")
	}
	// Full projection window skips the second copy.
	all, err := src.LoadRows(geometry.RowRange{Lo: 0, Hi: 10}, 0, 8)
	if err != nil || all.Pixels() != full.Pixels() {
		t.Fatalf("full-window load: %v", err)
	}
}

// Property: ExtractRows then ExtractProjections commutes with the reverse
// order and both equal a direct MemorySource load.
func TestExtractCommutes(t *testing.T) {
	full, _ := NewStack(5, 8, 12)
	fillSequential(full)
	f := func(loRaw, hiRaw uint8, pLoRaw, pHiRaw uint8) bool {
		lo := int(loRaw) % 12
		hi := lo + 1 + int(hiRaw)%(12-lo)
		pLo := int(pLoRaw) % 8
		pHi := pLo + 1 + int(pHiRaw)%(8-pLo)
		rows := geometry.RowRange{Lo: lo, Hi: hi}
		a, err := full.ExtractRows(rows)
		if err != nil {
			return false
		}
		a, err = a.ExtractProjections(pLo, pHi)
		if err != nil {
			return false
		}
		b, err := full.ExtractProjections(pLo, pHi)
		if err != nil {
			return false
		}
		b, err = b.ExtractRows(rows)
		if err != nil {
			return false
		}
		if a.V0 != b.V0 || a.P0 != b.P0 || len(a.Data) != len(b.Data) {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImageBasics(t *testing.T) {
	if _, err := NewImage(0, 4); err == nil {
		t.Error("expected size error")
	}
	im, _ := NewImage(3, 2)
	im.Set(2, 1, 9)
	if im.At(2, 1) != 9 || im.Data[1*3+2] != 9 {
		t.Fatal("image layout wrong")
	}
}

func TestStitchPair(t *testing.T) {
	left, _ := NewImage(6, 2)
	right, _ := NewImage(5, 2)
	for v := 0; v < 2; v++ {
		for u := 0; u < 6; u++ {
			left.Set(u, v, 1)
		}
		for u := 0; u < 5; u++ {
			right.Set(u, v, 3)
		}
	}
	out, err := StitchPair(left, right, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.NU != 9 || out.NV != 2 {
		t.Fatalf("stitched size %dx%d, want 9x2", out.NU, out.NV)
	}
	if out.At(0, 0) != 1 || out.At(3, 0) != 1 {
		t.Fatal("left exclusive region corrupted")
	}
	if out.At(8, 1) != 3 || out.At(6, 1) != 3 {
		t.Fatal("right exclusive region corrupted")
	}
	// Feather: weights 0.25/0.75 then 0.75/0.25 of (left=1, right=3).
	if math.Abs(float64(out.At(4, 0))-1.5) > 1e-6 || math.Abs(float64(out.At(5, 0))-2.5) > 1e-6 {
		t.Fatalf("overlap blend = %g,%g, want 1.5,2.5", out.At(4, 0), out.At(5, 0))
	}
}

// Stitching two identical constant frames must reproduce the constant
// everywhere, for any overlap.
func TestStitchIdentityProperty(t *testing.T) {
	f := func(overlapRaw uint8) bool {
		overlap := 1 + int(overlapRaw)%6
		a, _ := NewImage(6, 3)
		b, _ := NewImage(6, 3)
		for i := range a.Data {
			a.Data[i] = 7
			b.Data[i] = 7
		}
		out, err := StitchPair(a, b, overlap)
		if err != nil {
			return false
		}
		for _, x := range out.Data {
			if math.Abs(float64(x)-7) > 1e-6 {
				return false
			}
		}
		return out.NU == 12-overlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStitchErrors(t *testing.T) {
	a, _ := NewImage(4, 2)
	b, _ := NewImage(4, 3)
	if _, err := StitchPair(a, b, 1); err == nil {
		t.Error("expected height mismatch error")
	}
	c, _ := NewImage(4, 2)
	if _, err := StitchPair(a, c, 0); err == nil {
		t.Error("expected overlap error")
	}
	if _, err := StitchPair(a, c, 5); err == nil {
		t.Error("expected overlap>width error")
	}
}

// ToImage hands back projection p of a stack as one NV×NU image.
func TestToImage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st, err := NewStack(4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Data {
		st.Data[i] = float32(rng.NormFloat64())
	}
	for p := 0; p < st.NP; p++ {
		back, err := st.ToImage(p)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < st.NV; v++ {
			row, _ := st.Row(v, p)
			for u, x := range row {
				if back.At(u, v) != x {
					t.Fatalf("projection %d sample (%d,%d) corrupted", p, u, v)
				}
			}
		}
	}
	if _, err := st.ToImage(99); err == nil {
		t.Error("expected projection index error")
	}
}
