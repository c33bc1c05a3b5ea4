package fft

import "fmt"

// The per-row transform the lane form replaced, kept as its oracle: the
// same plan, one row in two work slices of m points (point j at zr[j],
// zi[j]), the passes as Go loops over the points of that row. Every lane of
// ConvolveLanes must equal it bit for bit (lanes_test.go), and the accuracy
// tests of rfft_test.go hold both to the naive DFT. Its products are written
// float64(a*b), and make fuse-lint reads these loops in the package's arm64
// test build.

// convolveRow filters one row in place as ConvolveLanes filters a lane: on
// entry zr[j] + i·zi[j] = x[2j] + i·x[2j+1] for j < live, on return the
// same positions hold the filtered samples; the rest is scratch.
func (p *RealPlan) convolveRow(zr, zi []float64, live int) error {
	m := p.m
	if len(zr) != m || len(zi) != m {
		return fmt.Errorf("fft: work slices %d/%d, plan needs %d", len(zr), len(zi), m)
	}
	if live < 0 || live > m/2 {
		return fmt.Errorf("fft: %d live points, plan of size %d takes at most %d", live, p.n, m/2)
	}
	p.forwardRow(zr, zi, live)
	p.pairsRow(zr, zi)
	p.inverseRow(zr, zi, live)
	return nil
}

// endsRow is ends for one row.
func (p *RealPlan) endsRow(zr, zi []float64, live int) (ar, ai, br, bi, cos, sin []float64) {
	h, n := p.m/2, (live+3)&^3
	return zr[:n], zi[:n], zr[h : h+n], zi[h : h+n], p.cos[h-1 : h-1+n], p.sin[h-1 : h-1+n]
}

func (p *RealPlan) forwardRow(zr, zi []float64, live int) {
	ar, ai, br, bi, cos, sin := p.endsRow(zr, zi, live)
	h := p.m / 2
	clear(zr[live:h])
	clear(zi[live:h])
	twiddleGo(ar, ai, br, bi, cos, sin)
	clear(zr[h+len(br):])
	clear(zi[h+len(bi):])
	difStagesGo(zr, zi, p.cos, p.sin)
	difRadix4Go(zr, zi)
}

func (p *RealPlan) pairsRow(zr, zi []float64) {
	a, g := p.pa[0], p.pg[0]
	r0, i0 := zr[0], zi[0]
	zr[0] = float64(a*r0) + float64(g*i0)
	zi[0] = float64(a*i0) + float64(g*r0)
	zr[1] *= p.pb[0]
	zi[1] *= p.pb[0]
	for b := 2; b < len(zr); b <<= 1 {
		pairBlock(zr, zi, p.pa, p.pb, p.pg, b)
	}
}

func (p *RealPlan) inverseRow(zr, zi []float64, live int) {
	ditRadix4Go(zr, zi)
	ditStagesGo(zr, zi, p.cos, p.sin)
	ar, ai, br, bi, cos, sin := p.endsRow(zr, zi, live)
	untwiddleGo(ar, ai, br, bi, cos, sin)
}

func twiddleGo(ar, ai, br, bi, cos, sin []float64) {
	for j := range ar {
		br[j] = float64(ar[j]*cos[j]) - float64(ai[j]*sin[j])
		bi[j] = float64(ar[j]*sin[j]) + float64(ai[j]*cos[j])
	}
}

func untwiddleGo(ar, ai, br, bi, cos, sin []float64) {
	for j := range ar {
		ar[j] += float64(br[j]*cos[j]) + float64(bi[j]*sin[j])
		ai[j] += float64(bi[j]*cos[j]) - float64(br[j]*sin[j])
	}
}

func difStagesGo(zr, zi, cos, sin []float64) {
	m := len(zr)
	for h := m / 4; h >= 4; h >>= 1 {
		c, s := cos[h-1:2*h-1], sin[h-1:2*h-1]
		for base := 0; base < m; base += 2 * h {
			ar, ai := zr[base:base+h], zi[base:base+h]
			br, bi := zr[base+h:base+2*h], zi[base+h:base+2*h]
			for j := range c {
				tr, ti := ar[j]-br[j], ai[j]-bi[j]
				ar[j] += br[j]
				ai[j] += bi[j]
				br[j] = float64(tr*c[j]) - float64(ti*s[j])
				bi[j] = float64(tr*s[j]) + float64(ti*c[j])
			}
		}
	}
}

func ditStagesGo(zr, zi, cos, sin []float64) {
	m := len(zr)
	for h := 4; h <= m/4; h <<= 1 {
		c, s := cos[h-1:2*h-1], sin[h-1:2*h-1]
		for base := 0; base < m; base += 2 * h {
			ar, ai := zr[base:base+h], zi[base:base+h]
			br, bi := zr[base+h:base+2*h], zi[base+h:base+2*h]
			for j := range c {
				tr := float64(br[j]*c[j]) + float64(bi[j]*s[j])
				ti := float64(bi[j]*c[j]) - float64(br[j]*s[j])
				br[j] = ar[j] - tr
				bi[j] = ai[j] - ti
				ar[j] += tr
				ai[j] += ti
			}
		}
	}
}

func difRadix4Go(zr, zi []float64) {
	for g := 0; g+4 <= len(zr) && g+4 <= len(zi); g += 4 {
		r, i := zr[g:g+4:g+4], zi[g:g+4:g+4]
		y0r, y0i := r[0]+r[2], i[0]+i[2]
		y1r, y1i := r[1]+r[3], i[1]+i[3]
		y2r, y2i := r[0]-r[2], i[0]-i[2]
		y3r, y3i := i[1]-i[3], r[3]-r[1] // (x1 − x3)·(−i)
		r[0], i[0] = y0r+y1r, y0i+y1i
		r[1], i[1] = y0r-y1r, y0i-y1i
		r[2], i[2] = y2r+y3r, y2i+y3i
		r[3], i[3] = y2r-y3r, y2i-y3i
	}
}

func ditRadix4Go(zr, zi []float64) {
	for g := 0; g+4 <= len(zr) && g+4 <= len(zi); g += 4 {
		r, i := zr[g:g+4:g+4], zi[g:g+4:g+4]
		y0r, y0i := r[0]+r[1], i[0]+i[1]
		y1r, y1i := r[0]-r[1], i[0]-i[1]
		y2r, y2i := r[2]+r[3], i[2]+i[3]
		y3r, y3i := i[3]-i[2], r[2]-r[3] // (z2 − z3)·(+i)
		r[0], i[0] = y0r+y2r, y0i+y2i
		r[2], i[2] = y0r-y2r, y0i-y2i
		r[1], i[1] = y1r+y3r, y1i+y3i
		r[3], i[3] = y1r-y3r, y1i-y3i
	}
}

// pairBlock runs the pair pass over the block [b, 2b): its lower half
// ascending against its upper half descending.
func pairBlock(zr, zi, pa, pb, pg []float64, b int) {
	pa, pb, pg = pa[b/2:b], pb[b/2:b], pg[b/2:b]
	lr, li := zr[b:b+b/2], zi[b:b+b/2]
	ur, ui := zr[b+b/2:2*b], zi[b+b/2:2*b]
	for j := range pa {
		q := len(ur) - 1 - j
		ar, ai, cr, ci := lr[j], li[j], ur[q], ui[q]
		lr[j] = float64(pa[j]*ar) + float64(pg[j]*ci)
		li[j] = float64(pa[j]*ai) + float64(pg[j]*cr)
		ur[q] = float64(pb[j]*cr) + float64(pg[j]*ai)
		ui[q] = float64(pb[j]*ci) + float64(pg[j]*ar)
	}
}
