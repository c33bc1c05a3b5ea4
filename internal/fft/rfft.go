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
// the butterfly work) and ConvolveLanes walks
//
//	pruned first stage → decimation-in-frequency stages → radix-4 end
//	→ pair pass → radix-4 start → decimation-in-time stages → pruned last stage
//
// The forward transform takes natural order to bit-reversed order and the
// inverse takes it back, so nothing is ever permuted; the untangling of the
// packed spectrum, the response, the retangling and every scale factor are
// one multiply-add pass over the (k, m−k) bin pairs where they lie; the
// upper half of the packed input is zero and the upper half of the output is
// never read, which prunes the two end stages.
//
// It filters Lanes rows at once, one row per lane: point j of row l lives at
// index Lanes·j+l of the workspace, so the Lanes values of one point are
// contiguous and every pass is the per-row pass with each scalar replaced by
// a vector of lanes — no operation ever combines two lanes. Every pass exists
// as a Go loop and, on amd64, as assembly (lanes_amd64.s) holding one point
// of all eight rows in a ZMM register, or in a pair of YMM registers on a
// host without AVX-512; the spellings perform the same operations in the
// same order, so which one runs — decided per host, by cpufeat — never
// changes a bit, and neither do a row's neighbours. The Go loops write every
// product that feeds an add or a subtract as float64(a*b): the conversion
// rounds, so a target with a fused multiply-add (arm64) computes what amd64
// computes (make fuse-lint checks the compiled loops). A RealPlan is safe for
// concurrent use once built; callers supply the workspace.
type RealPlan struct {
	n, m int
	// Twiddles exp(−2πij/2h), j < h, of the m-point transform's stage of
	// span h at [h−1, 2h−1): each stage's factors are contiguous.
	cos, sin []float64
	// Pair-pass constants: block [b, 2b)'s at [b/2, b), entry 0 those of
	// the two self-paired bins 0 and m/2.
	pa, pb, pg []float64
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

// WorkLen returns the length Lanes·m, m = n/2, of each of ConvolveLanes'
// two work slices.
func (p *RealPlan) WorkLen() int { return Lanes * p.m }

// Lanes is the number of rows one ConvolveLanes call filters.
const Lanes = 8

// ConvolveLanes filters Lanes rows in place in the lane-interleaved
// workspace: point j of lane l is zr[Lanes·j+l] + i·zi[Lanes·j+l]. On entry
// the points j < live of lane l hold that lane's row, x[2j] + i·x[2j+1] (an
// odd row's last imaginary part is zero); points from live on are taken as
// zero whatever the slices hold. On return the same positions hold the
// filtered samples y[2j] + i·y[2j+1]; the rest of zr and zi is scratch. Both
// slices must be WorkLen long and live at most n/4. No operation mixes two
// lanes, so a lane's bytes are the same whatever rows share its call.
func (p *RealPlan) ConvolveLanes(zr, zi []float64, live int) error {
	return p.convolve(hostPasses(), zr, zi, live)
}

// passes is what ConvolveLanes is made of besides the two self-paired
// bins: one implementation per kind of host, over the lane-interleaved
// workspace. Each operates on whole points, Lanes values each, and performs
// on every lane what the per-row transform performs on its row.
type passes struct {
	// twiddle sets b = a·w, untwiddle adds conj(w)·b to a, over the points
	// of a and b, one twiddle per point.
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
	// pairBlocks runs the pair pass over the blocks [b, 2b), b = 2 .. m/2.
	pairBlocks func(zr, zi, pa, pb, pg []float64)
}

// portable is the Go implementation: every host can run it, hosts without
// a vector implementation do, and the vector implementations are held to it.
var portable = passes{
	twiddle: twiddleLanes, untwiddle: untwiddleLanes,
	difStages: difStagesLanes, ditStages: ditStagesLanes,
	difRadix4: difRadix4Lanes, ditRadix4: ditRadix4Lanes,
	pairBlocks: pairBlocksLanes,
}

func (p *RealPlan) convolve(k *passes, zr, zi []float64, live int) error {
	if len(zr) != p.WorkLen() || len(zi) != p.WorkLen() {
		return fmt.Errorf("fft: work slices %d/%d, plan needs %d", len(zr), len(zi), p.WorkLen())
	}
	if h := p.m / 2; live < 0 || live > h {
		return fmt.Errorf("fft: %d live points, plan of size %d takes at most %d", live, p.n, h)
	}
	p.forward(k, zr, zi, live)
	p.pairs(k, zr, zi)
	p.inverse(k, zr, zi, live)
	return nil
}

// ends cuts the operands of the two end stages, of span h = m/2: a, b and
// the twiddles over the live points rounded up to a multiple of four, as the
// per-row transform rounded them to whole vectors; the points that rounds in
// are zero on the way in and scratch on the way out.
func (p *RealPlan) ends(zr, zi []float64, live int) (ar, ai, br, bi, cos, sin []float64) {
	h, n := p.m/2, (live+3)&^3
	a, b := Lanes*n, Lanes*h
	return zr[:a], zi[:a], zr[b : b+a], zi[b : b+a], p.cos[h-1 : h-1+n], p.sin[h-1 : h-1+n]
}

// forward leaves each lane's DFT in bit-reversed order.
func (p *RealPlan) forward(k *passes, zr, zi []float64, live int) {
	// First stage on an input whose upper half is zero: a + 0 stays where
	// it is and (a − 0)·w is one twiddle multiply per live point. What the
	// packed rows left untouched is cleared on the way.
	ar, ai, br, bi, cos, sin := p.ends(zr, zi, live)
	h := Lanes * p.m / 2
	clear(zr[Lanes*live : h])
	clear(zi[Lanes*live : h])
	k.twiddle(ar, ai, br, bi, cos, sin)
	clear(zr[h+len(br):])
	clear(zi[h+len(bi):])
	k.difStages(zr, zi, p.cos, p.sin)
	k.difRadix4(zr, zi)
}

// pairs untangles, scales by the response and retangles: the two self-paired
// bins here, the blocks [b, 2b) in pairBlocks.
func (p *RealPlan) pairs(k *passes, zr, zi []float64) {
	a, g, b := p.pa[0], p.pg[0], p.pb[0]
	r, i := point(zr, 0), point(zi, 0)
	for l := range r {
		r0, i0 := r[l], i[l]
		r[l] = float64(a*r0) + float64(g*i0)
		i[l] = float64(a*i0) + float64(g*r0)
	}
	r, i = point(zr, 1), point(zi, 1)
	for l := range r {
		r[l] *= b
		i[l] *= b
	}
	k.pairBlocks(zr, zi, p.pa, p.pb, p.pg)
}

// inverse takes each lane's bit-reversed spectrum back to its live points.
func (p *RealPlan) inverse(k *passes, zr, zi []float64, live int) {
	k.ditRadix4(zr, zi)
	k.ditStages(zr, zi, p.cos, p.sin)
	// Last stage: only the sums a + conj(w)·b of the live outputs; the
	// differences would be the output's upper half, which nobody reads.
	ar, ai, br, bi, cos, sin := p.ends(zr, zi, live)
	k.untwiddle(ar, ai, br, bi, cos, sin)
}

// point returns the Lanes values of point j.
func point(z []float64, j int) *[Lanes]float64 {
	return (*[Lanes]float64)(z[Lanes*j:])
}

func twiddleLanes(ar, ai, br, bi, cos, sin []float64) {
	for j, c := range cos {
		s := sin[j]
		xr, xi, yr, yi := point(ar, j), point(ai, j), point(br, j), point(bi, j)
		for l := range xr {
			yr[l] = float64(xr[l]*c) - float64(xi[l]*s)
			yi[l] = float64(xr[l]*s) + float64(xi[l]*c)
		}
	}
}

func untwiddleLanes(ar, ai, br, bi, cos, sin []float64) {
	for j, c := range cos {
		s := sin[j]
		xr, xi, yr, yi := point(ar, j), point(ai, j), point(br, j), point(bi, j)
		for l := range xr {
			xr[l] += float64(yr[l]*c) + float64(yi[l]*s)
			xi[l] += float64(yi[l]*c) - float64(yr[l]*s)
		}
	}
}

func difStagesLanes(zr, zi, cos, sin []float64) {
	m := len(zr) / Lanes
	for h := m / 4; h >= 4; h >>= 1 {
		for base := 0; base < m; base += 2 * h {
			for j := 0; j < h; j++ {
				c, s := cos[h-1+j], sin[h-1+j]
				ar, ai := point(zr, base+j), point(zi, base+j)
				br, bi := point(zr, base+h+j), point(zi, base+h+j)
				for l := range ar {
					tr, ti := ar[l]-br[l], ai[l]-bi[l]
					ar[l] += br[l]
					ai[l] += bi[l]
					br[l] = float64(tr*c) - float64(ti*s)
					bi[l] = float64(tr*s) + float64(ti*c)
				}
			}
		}
	}
}

func ditStagesLanes(zr, zi, cos, sin []float64) {
	m := len(zr) / Lanes
	for h := 4; h <= m/4; h <<= 1 {
		for base := 0; base < m; base += 2 * h {
			for j := 0; j < h; j++ {
				c, s := cos[h-1+j], sin[h-1+j]
				ar, ai := point(zr, base+j), point(zi, base+j)
				br, bi := point(zr, base+h+j), point(zi, base+h+j)
				for l := range ar {
					tr := float64(br[l]*c) + float64(bi[l]*s)
					ti := float64(bi[l]*c) - float64(br[l]*s)
					br[l] = ar[l] - tr
					bi[l] = ai[l] - ti
					ar[l] += tr
					ai[l] += ti
				}
			}
		}
	}
}

func difRadix4Lanes(zr, zi []float64) {
	for g := 0; g < len(zr)/Lanes; g += 4 {
		r0, r1, r2, r3 := point(zr, g), point(zr, g+1), point(zr, g+2), point(zr, g+3)
		i0, i1, i2, i3 := point(zi, g), point(zi, g+1), point(zi, g+2), point(zi, g+3)
		for l := range r0 {
			y0r, y0i := r0[l]+r2[l], i0[l]+i2[l]
			y1r, y1i := r1[l]+r3[l], i1[l]+i3[l]
			y2r, y2i := r0[l]-r2[l], i0[l]-i2[l]
			y3r, y3i := i1[l]-i3[l], r3[l]-r1[l] // (x1 − x3)·(−i)
			r0[l], i0[l] = y0r+y1r, y0i+y1i
			r1[l], i1[l] = y0r-y1r, y0i-y1i
			r2[l], i2[l] = y2r+y3r, y2i+y3i
			r3[l], i3[l] = y2r-y3r, y2i-y3i
		}
	}
}

func ditRadix4Lanes(zr, zi []float64) {
	for g := 0; g < len(zr)/Lanes; g += 4 {
		r0, r1, r2, r3 := point(zr, g), point(zr, g+1), point(zr, g+2), point(zr, g+3)
		i0, i1, i2, i3 := point(zi, g), point(zi, g+1), point(zi, g+2), point(zi, g+3)
		for l := range r0 {
			y0r, y0i := r0[l]+r1[l], i0[l]+i1[l]
			y1r, y1i := r0[l]-r1[l], i0[l]-i1[l]
			y2r, y2i := r2[l]+r3[l], i2[l]+i3[l]
			y3r, y3i := i3[l]-i2[l], r2[l]-r3[l] // (z2 − z3)·(+i)
			r0[l], i0[l] = y0r+y2r, y0i+y2i
			r2[l], i2[l] = y0r-y2r, y0i-y2i
			r1[l], i1[l] = y1r+y3r, y1i+y3i
			r3[l], i3[l] = y1r-y3r, y1i-y3i
		}
	}
}

// pairBlocksLanes runs each block [b, 2b)'s lower half ascending against its
// upper half descending: in bit-reversed order bin m−k lies at the mirror
// image of bin k inside its block.
func pairBlocksLanes(zr, zi, pa, pb, pg []float64) {
	for b := 2; b < len(zr)/Lanes; b <<= 1 {
		for j := 0; j < b/2; j++ {
			alpha, beta, gamma := pa[b/2+j], pb[b/2+j], pg[b/2+j]
			lr, li := point(zr, b+j), point(zi, b+j)
			ur, ui := point(zr, 2*b-1-j), point(zi, 2*b-1-j)
			for l := range lr {
				ar, ai, cr, ci := lr[l], li[l], ur[l], ui[l]
				lr[l] = float64(alpha*ar) + float64(gamma*ci)
				li[l] = float64(alpha*ai) + float64(gamma*cr)
				ur[l] = float64(beta*cr) + float64(gamma*ai)
				ui[l] = float64(beta*ci) + float64(gamma*ar)
			}
		}
	}
}
