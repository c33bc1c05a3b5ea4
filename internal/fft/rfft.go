package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// MinRealSize is the smallest RealPlan: below it the half-size complex
// transform has no pruned end stage in front of its radix-4 pass.
const MinRealSize = 16

// RealPlan is the repository's one real-input transform, standing in for the
// paper's IPP real-to-complex filtering: the circular convolution of a real
// row of at most n/2 samples with a fixed real, even kernel given by its
// frequency response, of which at most n/2 output samples are wanted — the
// shape of zero-padded ramp filtering. The row's even/odd samples are packed
// into one complex sequence of m = n/2 points (the classic trick that halves
// the butterfly work) and Convolve walks
//
//	pruned first stage → decimation-in-frequency stages → radix-4 end
//	→ pair pass → radix-4 start → decimation-in-time stages → pruned last stage
//
// The forward transform takes natural order to bit-reversed order and the
// inverse takes it back, so nothing is ever permuted; the untangling of the
// packed spectrum, the response, the retangling and every scale factor are
// one multiply-add pass over the (k, m−k) bin pairs where they lie; the
// upper half of the packed input is zero and the upper half of the output is
// never read, which prunes the two end stages. Every pass exists as a Go
// loop and, on amd64, as an AVX2 routine working four points of the row at a
// time (stages_amd64.s); the two perform the same operations in the same
// order, so which one runs — decided per host, by cpufeat.AVX2 — never
// changes a bit. The Go loops write every product that feeds an add or a
// subtract as float64(a*b): the conversion rounds, so a target with a fused
// multiply-add (arm64) computes what amd64 computes (make fuse-lint checks
// the compiled loops). A RealPlan is safe for concurrent use once built;
// callers supply the workspace.
type RealPlan struct {
	n, m int
	// Twiddles exp(−2πij/2h), j < h, of the m-point transform's stage of
	// span h at [h−1, 2h−1): each stage's factors are contiguous.
	cos, sin []float64
	// Pair-pass constants: block [b, 2b)'s at [b/2, b), entry 0 those of
	// the two self-paired bins 0 and m/2.
	pa, pb, pg []float64
}

// passes is what Convolve is made of besides a few scalar points: one
// implementation per kind of host.
type passes struct {
	// twiddle sets b = a·w, untwiddle adds conj(w)·b to a, over slices of
	// one length that is a multiple of four.
	twiddle, untwiddle func(ar, ai, br, bi, cos, sin []float64)
	// difStages runs the decimation-in-frequency stages of spans m/4 down
	// to 4, a' = a + b, b' = (a − b)·w; ditStages the decimation-in-time
	// stages of spans 4 up to m/4 with the conjugate twiddles, t = conj(w)·b,
	// a' = a + t, b' = a − t.
	difStages, ditStages func(zr, zi, cos, sin []float64)
	// difRadix4 is the forward transform's last two stages, spans 2 and 1,
	// whose twiddles are 1 and −i: sixteen additions per four points and no
	// multiplication. ditRadix4 is its transpose, spans 1 and 2 with 1 and
	// +i, the inverse's first two.
	difRadix4, ditRadix4 func(zr, zi []float64)
	// pairBlocks runs the pair pass over the blocks [b, 2b), b = 8 .. m/2.
	pairBlocks func(zr, zi, pa, pb, pg []float64)
}

// portable is the Go implementation: every host can run it, and hosts
// without a vector implementation do.
var portable = passes{
	twiddle: twiddleGo, untwiddle: untwiddleGo,
	difStages: difStagesGo, ditStages: ditStagesGo,
	difRadix4: difRadix4Go, ditRadix4: ditRadix4Go,
	pairBlocks: pairBlocksGo,
}

// NewRealPlan builds the plan that convolves rows with the kernel whose
// frequency response at bins 0..n/2 is resp (real: the kernel is even). n
// must be a power of two and at least 16.
func NewRealPlan(n int, resp []float64) (*RealPlan, error) {
	if !IsPow2(n) || n < MinRealSize {
		return nil, fmt.Errorf("fft: real plan size %d is not a power of two >= %d", n, MinRealSize)
	}
	m := n / 2
	if len(resp) != m+1 {
		return nil, fmt.Errorf("fft: response has %d bins, want %d", len(resp), m+1)
	}
	p := &RealPlan{n: n, m: m}
	p.cos = make([]float64, m-1)
	p.sin = make([]float64, m-1)
	for h := 1; h < m; h <<= 1 {
		for j := 0; j < h; j++ {
			a := -math.Pi * float64(j) / float64(h)
			p.cos[h-1+j] = math.Cos(a)
			p.sin[h-1+j] = math.Sin(a)
		}
	}

	// With A = Z[k], C = Z[m−k] the packed spectrum's bins, W = exp(−2πi/n)
	// and r, r' the response at k and m−k, untangling (X[k] = Fe + W^k·Fo,
	// X[m−k] = conj(Fe − W^k·Fo), Fe = (A + conj C)/2, Fo = −i(A − conj C)/2),
	// scaling by r and r', retangling and the inverse's 1/m collapse to
	//
	//	Z'[k]   = α·A + iγ·conj(C)      α = (s − d·sin θ)/m   s = (r + r')/2
	//	Z'[m−k] = β·C + iγ·conj(A)      β = (s + d·sin θ)/m   d = (r − r')/2
	//	                                γ = d·cos θ/m         θ = 2πk/n
	//
	// In bit-reversed order bin m−k lies at the mirror image of bin k
	// inside its power-of-two block [b, 2b), so the pass needs no index
	// table: block by block, the lower half ascending against the upper
	// half descending.
	p.pa = make([]float64, m/2)
	p.pb = make([]float64, m/2)
	p.pg = make([]float64, m/2)
	shift := 64 - uint(bits.Len(uint(m-1)))
	pair := func(pos int) (alpha, beta, gamma float64) {
		k := int(bits.Reverse64(uint64(pos)) >> shift)
		s := (resp[k] + resp[m-k]) / 2
		d := (resp[k] - resp[m-k]) / 2
		sin, cos := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		return (s - d*sin) / float64(m), (s + d*sin) / float64(m), d * cos / float64(m)
	}
	p.pa[0], _, p.pg[0] = pair(0) // bin 0 pairs with itself: A = C
	p.pb[0], _, _ = pair(1)       // bin m/2 as well, and there d = 0
	for b := 2; b < m; b <<= 1 {
		for j := 0; j < b/2; j++ {
			p.pa[b/2+j], p.pb[b/2+j], p.pg[b/2+j] = pair(b + j)
		}
	}
	return p, nil
}

// Size returns the real transform length n.
func (p *RealPlan) Size() int { return p.n }

// WorkLen returns the length m = n/2 of each of Convolve's two work slices.
func (p *RealPlan) WorkLen() int { return p.m }

// Convolve filters one row in place in the packed workspace. On entry
// zr[j] + i·zi[j] = x[2j] + i·x[2j+1] for j < live holds the row (an odd
// row's last imaginary part is zero); samples from 2·live on are taken as
// zero whatever the slices hold. On return the same positions hold the
// filtered samples y[2j] + i·y[2j+1]; the rest of zr and zi is scratch. Both
// slices must be WorkLen long and live at most WorkLen/2.
func (p *RealPlan) Convolve(zr, zi []float64, live int) error {
	return p.convolve(hostPasses(), zr, zi, live)
}

func (p *RealPlan) convolve(k *passes, zr, zi []float64, live int) error {
	m := p.m
	if len(zr) != m || len(zi) != m {
		return fmt.Errorf("fft: work slices %d/%d, plan needs %d", len(zr), len(zi), m)
	}
	h := m / 2
	if live < 0 || live > h {
		return fmt.Errorf("fft: %d live points, plan of size %d takes at most %d", live, p.n, h)
	}
	p.forward(k, zr, zi, live)
	p.pairs(k, zr, zi)
	p.inverse(k, zr, zi, live)
	return nil
}

// ends cuts the operands of the two end stages, of span h = m/2: a, b and
// the twiddles over the live points rounded up to whole vectors of four; the
// points that rounds in are zero on the way in and scratch on the way out.
func (p *RealPlan) ends(zr, zi []float64, live int) (ar, ai, br, bi, cos, sin []float64) {
	h, n := p.m/2, (live+3)&^3
	return zr[:n], zi[:n], zr[h : h+n], zi[h : h+n], p.cos[h-1 : h-1+n], p.sin[h-1 : h-1+n]
}

// forward leaves the packed row's DFT in bit-reversed order.
func (p *RealPlan) forward(k *passes, zr, zi []float64, live int) {
	// First stage on an input whose upper half is zero: a + 0 stays where
	// it is and (a − 0)·w is one twiddle multiply per live point. What the
	// packed row left untouched is cleared on the way.
	ar, ai, br, bi, cos, sin := p.ends(zr, zi, live)
	h := p.m / 2
	clear(zr[live:h])
	clear(zi[live:h])
	k.twiddle(ar, ai, br, bi, cos, sin)
	clear(zr[h+len(br):])
	clear(zi[h+len(bi):])
	k.difStages(zr, zi, p.cos, p.sin)
	k.difRadix4(zr, zi)
}

// pairs untangles, scales by the response and retangles: the two self-paired
// bins and the blocks [2, 4) and [4, 8) here, the blocks of whole vectors in
// pairBlocks.
func (p *RealPlan) pairs(k *passes, zr, zi []float64) {
	a, g := p.pa[0], p.pg[0]
	r0, i0 := zr[0], zi[0]
	zr[0] = float64(a*r0) + float64(g*i0)
	zi[0] = float64(a*i0) + float64(g*r0)
	zr[1] *= p.pb[0]
	zi[1] *= p.pb[0]
	pairBlock(zr, zi, p.pa, p.pb, p.pg, 2)
	pairBlock(zr, zi, p.pa, p.pb, p.pg, 4)
	k.pairBlocks(zr, zi, p.pa, p.pb, p.pg)
}

// inverse takes a bit-reversed spectrum back to the live points of the row.
func (p *RealPlan) inverse(k *passes, zr, zi []float64, live int) {
	k.ditRadix4(zr, zi)
	k.ditStages(zr, zi, p.cos, p.sin)
	// Last stage: only the sums a + conj(w)·b of the live outputs; the
	// differences would be the output's upper half, which nobody reads.
	ar, ai, br, bi, cos, sin := p.ends(zr, zi, live)
	k.untwiddle(ar, ai, br, bi, cos, sin)
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

func pairBlocksGo(zr, zi, pa, pb, pg []float64) {
	for b := 8; b < len(zr); b <<= 1 {
		pairBlock(zr, zi, pa, pb, pg, b)
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
