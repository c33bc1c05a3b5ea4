package filter

import (
	"math"
	"testing"
)

// Weight returns the weight of projection p, column u.
func (pk *Parker) Weight(p, u int) float32 { return pk.weights[p*pk.nu+u] }

func parkerFixture(t *testing.T) (*Parker, []float64, float64, float64) {
	t.Helper()
	const (
		nu  = 64
		du  = 0.5
		dsd = 350.0
	)
	gammaM := math.Atan2((float64(nu)-1)/2*du, dsd)
	scanRange := math.Pi + 2*gammaM
	const np = 180
	angles := make([]float64, np)
	for p := range angles {
		angles[p] = scanRange * float64(p) / float64(np)
	}
	pk, err := NewParker(nu, du, dsd, 0, angles, scanRange)
	if err != nil {
		t.Fatal(err)
	}
	return pk, angles, gammaM, scanRange
}

func TestParkerValidation(t *testing.T) {
	angles := []float64{0, 0.1}
	if _, err := NewParker(0, 0.5, 350, 0, angles, math.Pi*1.2); err == nil {
		t.Error("expected NU error")
	}
	if _, err := NewParker(8, 0, 350, 0, angles, math.Pi*1.2); err == nil {
		t.Error("expected pitch error")
	}
	if _, err := NewParker(8, 0.5, 350, 0, nil, math.Pi*1.2); err == nil {
		t.Error("expected angles error")
	}
	// Below the short-scan minimum.
	if _, err := NewParker(8, 0.5, 350, 0, angles, math.Pi*0.9); err == nil {
		t.Error("expected range-too-small error")
	}
	// Full scan needs no Parker.
	if _, err := NewParker(8, 0.5, 350, 0, angles, 2*math.Pi); err == nil {
		t.Error("expected full-scan error")
	}
}

func TestParkerWeightsInRange(t *testing.T) {
	pk, _, _, _ := parkerFixture(t)
	for p := 0; p < pk.np; p++ {
		for u := 0; u < pk.nu; u++ {
			w := float64(pk.Weight(p, u))
			if w < 0 || w > 1+1e-6 {
				t.Fatalf("weight(%d,%d) = %g outside [0,1]", p, u, w)
			}
		}
	}
	// The first projection's edge columns get ~0 (ramp-up region),
	// mid-scan columns get the plateau 1.
	if w := pk.Weight(pk.np/2, pk.nu/2); math.Abs(float64(w)-1) > 1e-6 {
		t.Fatalf("mid-scan central weight %g, want 1", w)
	}
}

// The defining property: for every ray measured twice in the short scan,
// the two conjugate weights sum to 1. The conjugate of (β, γ) is
// (β + π + 2γ, −γ): rotating the source by π+2γ and mirroring the fan
// angle traces the same line in the opposite direction. Checked on the
// continuous window (the discrete table's ramp regions span only a sample
// or two at clinical fan angles, so table-level checks would alias).
func TestParkerConjugateSumsToOne(t *testing.T) {
	const gammaM = 0.25 // generous fan so all three branches are exercised
	for i := 0; i <= 40; i++ {
		gamma := -gammaM + 2*gammaM*float64(i)/40
		for j := 0; j <= 80; j++ {
			beta := (math.Pi + 2*gammaM) * float64(j) / 80
			betaC := beta + math.Pi + 2*gamma
			if betaC < 0 || betaC > math.Pi+2*gammaM {
				continue // measured once; no conjugate in scan
			}
			w1 := parkerWeight(beta, gamma, gammaM)
			w2 := parkerWeight(betaC, -gamma, gammaM)
			if math.Abs(w1+w2-1) > 1e-9 {
				t.Fatalf("conjugate weights at β=%.4f γ=%.4f: %g + %g ≠ 1", beta, gamma, w1, w2)
			}
		}
	}
	// Rays with no in-scan conjugate sit on the plateau (weight 1).
	if w := parkerWeight(math.Pi/2, 0, gammaM); w != 1 {
		t.Fatalf("mid-scan central ray weight %g, want 1", w)
	}
}

func TestParkerApplyRow(t *testing.T) {
	pk, _, _, _ := parkerFixture(t)
	row := make([]float32, 64)
	for i := range row {
		row[i] = 2
	}
	if err := pk.ApplyRow(row, pk.np/2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(row[32])-2) > 1e-5 {
		t.Fatalf("plateau sample = %g, want 2", row[32])
	}
	if err := pk.ApplyRow(row[:10], 0); err == nil {
		t.Error("expected row-length error")
	}
	if err := pk.ApplyRow(row, -1); err == nil {
		t.Error("expected projection bounds error")
	}
	if err := pk.ApplyRow(row, pk.np); err == nil {
		t.Error("expected projection bounds error")
	}
}

func TestParkerApplyRows(t *testing.T) {
	pk, _, _, _ := parkerFixture(t)
	const rows = 6
	data := make([]float32, rows*64)
	for i := range data {
		data[i] = 1
	}
	pOf := func(i int) int { return (i * 13) % pk.np }
	if err := pk.ApplyRows(data, rows, pOf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		p := pOf(i)
		for u := 0; u < 64; u += 9 {
			if data[i*64+u] != pk.Weight(p, u) {
				t.Fatalf("row %d col %d: %g != weight %g", i, u, data[i*64+u], pk.Weight(p, u))
			}
		}
	}
	if err := pk.ApplyRows(data[:5], 1, pOf); err == nil {
		t.Error("expected buffer-size error")
	}
}
