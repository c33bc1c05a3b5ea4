package experiments

import (
	"strconv"
	"testing"
)

func TestWindowsStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution experiment")
	}
	tb, err := windows(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("window study has %d rows, want 5", len(tb.Rows))
	}
	penalty := map[string]float64{}
	for _, r := range tb.Rows {
		p, err := strconv.ParseFloat(r[3][:len(r[3])-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		penalty[r[0]] = p
	}
	// The unapodised ramp must pay the largest noise penalty; Hann the
	// smallest (or tied).
	if penalty["ram-lak"] <= penalty["hann"] {
		t.Fatalf("noise penalties inverted: ram-lak %.3f vs hann %.3f", penalty["ram-lak"], penalty["hann"])
	}
}

func TestSparseViewsCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution experiment")
	}
	tb, err := sparseViews(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("sparse study has %d rows, want 4", len(tb.Rows))
	}
	// Few views: iterative must win. Many views: FDK must close the gap
	// (win or within 2x).
	if tb.Rows[0][4] != "iterative" {
		t.Fatalf("iterative should win at 8 views: %v", tb.Rows[0])
	}
	fdkMany, _ := strconv.ParseFloat(tb.Rows[3][1], 64)
	fdkFew, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	if fdkMany >= fdkFew {
		t.Fatalf("FDK must improve with views: %g at 8 vs %g at 64", fdkFew, fdkMany)
	}
}
