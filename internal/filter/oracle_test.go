package filter

import (
	"math"

	"distfdk/internal/fft"
)

// oraclePlan is the real-input transform every row went through before the
// pruned, permutation-free fft.RealPlan replaced it, kept verbatim as a test
// oracle: pack the even/odd samples into one half-size complex transform
// (fft.Plan, bit-reversal and radix-2 stages), untangle, and the reverse on
// the way back.
type oraclePlan struct {
	n    int
	half *fft.Plan
	// Untangle twiddles exp(−2πik/n) for k = 0..n/4.
	cos, sin []float64
}

func newOraclePlan(n int) (*oraclePlan, error) {
	half, err := fft.NewPlan(n / 2)
	if err != nil {
		return nil, err
	}
	p := &oraclePlan{n: n, half: half}
	q := n/4 + 1
	p.cos = make([]float64, q)
	p.sin = make([]float64, q)
	for k := 0; k < q; k++ {
		a := -2 * math.Pi * float64(k) / float64(n)
		p.cos[k] = math.Cos(a)
		p.sin[k] = math.Sin(a)
	}
	return p, nil
}

func (p *oraclePlan) Forward(x []float64, re, im []float64) error {
	m := p.n / 2
	zr, zi := re[:m], im[:m]
	for j := 0; j < m; j++ {
		zr[j] = x[2*j]
		zi[j] = x[2*j+1]
	}
	if err := p.half.Forward(zr, zi); err != nil {
		return err
	}
	r0, i0 := zr[0], zi[0]
	re[0], im[0] = r0+i0, 0
	re[m], im[m] = r0-i0, 0
	for k := 1; k <= m/2; k++ {
		kr, ki := zr[k], zi[k]
		jr, ji := zr[m-k], zi[m-k]
		fer, fei := (kr+jr)/2, (ki-ji)/2
		for_, foi := (ki+ji)/2, (jr-kr)/2
		wr, wi := p.cos[k], p.sin[k]
		tr := wr*for_ - wi*foi
		ti := wr*foi + wi*for_
		re[k], im[k] = fer+tr, fei+ti
		re[m-k], im[m-k] = fer-tr, ti-fei
	}
	return nil
}

func (p *oraclePlan) Inverse(re, im []float64, x []float64) error {
	m := p.n / 2
	zr, zi := re[:m], im[:m]
	r0, rm := re[0], re[m]
	zr[0] = (r0 + rm) / 2
	zi[0] = (r0 - rm) / 2
	for k := 1; k <= m/2; k++ {
		kr, ki := re[k], im[k]
		jr, ji := re[m-k], im[m-k]
		fer, fei := (kr+jr)/2, (ki-ji)/2
		dr, di := (kr-jr)/2, (ki+ji)/2
		wr, wi := p.cos[k], p.sin[k]
		for_ := wr*dr + wi*di
		foi := wr*di - wi*dr
		zr[k], zi[k] = fer-foi, fei+for_
		zr[m-k], zi[m-k] = fer+foi, for_-fei
	}
	if err := p.half.Inverse(zr, zi); err != nil {
		return err
	}
	for j := 0; j < m; j++ {
		x[2*j] = zr[j]
		x[2*j+1] = zi[j]
	}
	return nil
}

// oracleFilter is the row arithmetic FilterRow had on that transform:
// x holds the weighted row (already rounded to float32) zero-padded to the
// response's length; it returns the filtered samples before their rounding
// to float32.
func oracleFilter(x []float64, resp []float64) ([]float64, error) {
	n := len(x)
	p, err := newOraclePlan(n)
	if err != nil {
		return nil, err
	}
	re, im := make([]float64, n/2+1), make([]float64, n/2+1)
	if err := p.Forward(x, re, im); err != nil {
		return nil, err
	}
	for k := range re {
		re[k] *= resp[k]
		im[k] *= resp[k]
	}
	out := make([]float64, n)
	return out, p.Inverse(re, im, out)
}
