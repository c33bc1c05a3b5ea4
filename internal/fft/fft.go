// Package fft provides the fast Fourier transform primitives used by the
// filtering stage of the FBP pipeline (Equation 2 of the paper). The paper
// performs row filtering with Intel IPP's vectorised real transforms on the
// host CPU; this package is the stdlib-only substitute: RealPlan, the pruned,
// permutation-free real-input transform every detector row goes through
// (eight rows per transform, one per vector lane), and Plan, the plain radix-2
// complex transform that builds the filter's frequency response at set-up.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Plan caches the bit-reversal permutation and twiddle factors for
// transforms of a fixed power-of-two size, so repeated row filtering does
// not recompute trigonometry. A Plan is safe for concurrent use once built.
type Plan struct {
	n   int
	rev []int
	// cos/sin tables per butterfly stage, laid out stage-major.
	cos, sin []float64
}

// NewPlan builds a transform plan of size n, which must be a power of two.
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: size %d is not a power of two", n)
	}
	p := &Plan{n: n}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		shift = 64
	}
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	// Twiddles: for each stage size m (2,4,...,n) we need m/2 factors
	// w_m^j = exp(-2πi·j/m). Total is n-1 entries.
	p.cos = make([]float64, 0, n)
	p.sin = make([]float64, 0, n)
	for m := 2; m <= n; m <<= 1 {
		for j := 0; j < m/2; j++ {
			a := -2 * math.Pi * float64(j) / float64(m)
			p.cos = append(p.cos, math.Cos(a))
			p.sin = append(p.sin, math.Sin(a))
		}
	}
	return p, nil
}

// Size returns the transform length.
func (p *Plan) Size() int { return p.n }

// Forward computes the in-place forward DFT of the complex sequence given as
// separate real and imaginary slices, each of length Size.
func (p *Plan) Forward(re, im []float64) error { return p.transform(re, im, false) }

// Inverse computes the in-place inverse DFT (including the 1/n scaling).
func (p *Plan) Inverse(re, im []float64) error { return p.transform(re, im, true) }

func (p *Plan) transform(re, im []float64, inverse bool) error {
	n := p.n
	if len(re) != n || len(im) != n {
		return fmt.Errorf("fft: input length %d/%d, plan size %d", len(re), len(im), n)
	}
	// Bit-reversal permutation.
	for i, r := range p.rev {
		if i < r {
			re[i], re[r] = re[r], re[i]
			im[i], im[r] = im[r], im[i]
		}
	}
	// Iterative butterflies. The twiddle table stores exp(-2πij/m); the
	// inverse transform conjugates it.
	tw := 0
	for m := 2; m <= n; m <<= 1 {
		half := m / 2
		for base := 0; base < n; base += m {
			for j := 0; j < half; j++ {
				wr := p.cos[tw+j]
				wi := p.sin[tw+j]
				if inverse {
					wi = -wi
				}
				a := base + j
				b := a + half
				tr := wr*re[b] - wi*im[b]
				ti := wr*im[b] + wi*re[b]
				re[b] = re[a] - tr
				im[b] = im[a] - ti
				re[a] += tr
				im[a] += ti
			}
		}
		tw += half
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range re {
			re[i] *= inv
			im[i] *= inv
		}
	}
	return nil
}
