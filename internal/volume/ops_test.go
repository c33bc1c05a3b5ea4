package volume

import (
	"math"
	"testing"
)

func TestSubVolume(t *testing.T) {
	v, _ := NewSlab(5, 4, 6, 10)
	for i := range v.Data {
		v.Data[i] = float32(i)
	}
	roi, err := v.SubVolume(1, 2, 3, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if roi.NX != 3 || roi.NY != 2 || roi.NZ != 2 || roi.Z0 != 13 {
		t.Fatalf("ROI shape %s", roi.ShapeString())
	}
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 3; i++ {
				if roi.At(i, j, k) != v.At(1+i, 2+j, 3+k) {
					t.Fatalf("ROI voxel (%d,%d,%d) mismatched", i, j, k)
				}
			}
		}
	}
	// Copy, not view.
	roi.Set(0, 0, 0, -99)
	if v.At(1, 2, 3) == -99 {
		t.Fatal("SubVolume aliases parent")
	}
	for _, bad := range [][6]int{
		{-1, 0, 0, 1, 1, 1}, {0, 0, 0, 6, 1, 1}, {4, 0, 0, 2, 1, 1}, {0, 0, 0, 0, 1, 1},
	} {
		if _, err := v.SubVolume(bad[0], bad[1], bad[2], bad[3], bad[4], bad[5]); err == nil {
			t.Errorf("ROI %v: expected error", bad)
		}
	}
}

func TestSummarize(t *testing.T) {
	v, _ := New(2, 2, 1)
	copy(v.Data, []float32{1, 2, 3, float32(math.NaN())})
	s := v.Summarize()
	if s.NaNOrInf != 1 || s.Voxels != 4 {
		t.Fatalf("summary counts %+v", s)
	}
	if s.Min != 1 || s.Max != 3 {
		t.Fatalf("min/max %g/%g", s.Min, s.Max)
	}
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Fatalf("mean %g", s.Mean)
	}
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-9 {
		t.Fatalf("std %g, want %g", s.Std, want)
	}
	empty := &Volume{}
	if s := empty.Summarize(); s.Voxels != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestHistogram(t *testing.T) {
	v, _ := New(4, 1, 1)
	copy(v.Data, []float32{-1, 0.1, 0.9, 5})
	h, err := v.Histogram(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// -1 clamps to bin 0, 0.1→bin 0, 0.9→bin 1, 5 clamps to bin 1.
	if h[0] != 2 || h[1] != 2 {
		t.Fatalf("histogram %v", h)
	}
	if _, err := v.Histogram(0, 1, 0); err == nil {
		t.Error("expected bins error")
	}
	if _, err := v.Histogram(1, 1, 4); err == nil {
		t.Error("expected empty-range error")
	}
	// Total count property.
	sum := 0
	for _, c := range h {
		sum += c
	}
	if sum != v.Voxels() {
		t.Fatalf("histogram total %d != voxels %d", sum, v.Voxels())
	}
}
