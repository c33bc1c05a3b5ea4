package fft

import (
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// packRow packs the real row x into lane l of a lane workspace of m points
// the way RealPlan.ConvolveLanes takes it: even samples real, odd samples
// imaginary. Everything else, the other lanes and the points beyond the
// live ones, is NaN — ConvolveLanes must neither read what it was not given
// nor let one lane reach another.
func packRow(x []float64, m, l int) (zr, zi []float64, live int) {
	zr, zi = make([]float64, Lanes*m), make([]float64, Lanes*m)
	for j := range zr {
		zr[j], zi[j] = math.NaN(), math.NaN()
	}
	live = (len(x) + 1) / 2
	for j := 0; j < live; j++ {
		zr[Lanes*j+l], zi[Lanes*j+l] = x[2*j], 0
		if 2*j+1 < len(x) {
			zi[Lanes*j+l] = x[2*j+1]
		}
	}
	return zr, zi, live
}

// sample returns sample i of the row in lane l.
func sample(zr, zi []float64, l, i int) float64 {
	if i%2 == 1 {
		return zi[Lanes*(i/2)+l]
	}
	return zr[Lanes*(i/2)+l]
}

func unitResponse(n int) []float64 {
	resp := make([]float64, n/2+1)
	for k := range resp {
		resp[k] = 1
	}
	return resp
}

func randomRow(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	return x
}

// The forward half of the transform — pruned first stage, the
// decimation-in-frequency stages and the radix-4 end — must leave the DFT of
// the packed sequence at the bit-reversed positions: untangled by the
// textbook formula it is the real row's DFT on every independent bin, for
// full-length, short and odd rows, from the smallest plan up.
func TestRealForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{16, 32, 64, 256, 1024} {
		p, err := NewRealPlan(n, unitResponse(n))
		if err != nil {
			t.Fatal(err)
		}
		m := n / 2
		if p.Size() != n || p.WorkLen() != Lanes*m {
			t.Fatalf("n=%d: Size=%d WorkLen=%d", n, p.Size(), p.WorkLen())
		}
		for l, rowLen := range []int{m, m - 1, m/2 + 1, 1} {
			x := make([]float64, n)
			copy(x, randomRow(rng, rowLen))
			zr, zi, live := packRow(x[:rowLen], m, 2*l+1)
			p.forward(hostPasses(), zr, zi, live)
			shift := 64 - uint(bits.Len(uint(m-1)))
			z := func(k int) complex128 {
				pos := int(bits.Reverse64(uint64(k%m)) >> shift)
				return complex(zr[Lanes*pos+2*l+1], zi[Lanes*pos+2*l+1])
			}
			wr, wi := naiveDFT(x, make([]float64, n))
			for k := 0; k <= m; k++ {
				a, c := z(k), z(m-k)
				fe := (a + complex(real(c), -imag(c))) / 2
				fo := (a - complex(real(c), -imag(c))) / complex(0, 2)
				sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
				got := fe + complex(cos, sin)*fo
				if math.Abs(real(got)-wr[k]) > 1e-9 || math.Abs(imag(got)-wi[k]) > 1e-9 {
					t.Fatalf("n=%d row %d bin %d: got %v, want (%g,%g)", n, rowLen, k, got, wr[k], wi[k])
				}
			}
		}
	}
}

// ConvolveLanes with the unit response must reproduce the row (up to rounding),
// and with a symmetric real response it must match the full complex
// transform doing the same scaling — the ramp-filter use case.
func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{16, 32, 512} {
		m := n / 2
		for _, rowLen := range []int{m, m - 3, 2} {
			x := randomRow(rng, rowLen)
			p, err := NewRealPlan(n, unitResponse(n))
			if err != nil {
				t.Fatal(err)
			}
			zr, zi, live := packRow(x, m, Lanes-1)
			if err := p.ConvolveLanes(zr, zi, live); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if got := sample(zr, zi, Lanes-1, i); math.Abs(got-x[i]) > 1e-9 {
					t.Fatalf("n=%d row %d sample %d: round trip %g, want %g", n, rowLen, i, got, x[i])
				}
			}

			resp := make([]float64, m+1)
			for k := range resp {
				resp[k] = 1 / (1 + float64(k))
			}
			if p, err = NewRealPlan(n, resp); err != nil {
				t.Fatal(err)
			}
			cp, err := NewPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			cr, ci := make([]float64, n), make([]float64, n)
			copy(cr, x)
			if err := cp.Forward(cr, ci); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				f := k
				if f > m {
					f = n - f
				}
				cr[k] *= resp[f]
				ci[k] *= resp[f]
			}
			if err := cp.Inverse(cr, ci); err != nil {
				t.Fatal(err)
			}
			zr, zi, live = packRow(x, m, 0)
			if err := p.ConvolveLanes(zr, zi, live); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if got := sample(zr, zi, 0, i); math.Abs(got-cr[i]) > 1e-9 {
					t.Fatalf("n=%d row %d sample %d: filtered real path %g, complex path %g", n, rowLen, i, got, cr[i])
				}
			}
		}
	}
}

// ConvolveLanes against the definition: the circular convolution with a random
// real, even kernel, on the samples the caller reads back.
func TestRealConvolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for l, tc := range []struct{ n, row int }{{16, 8}, {16, 5}, {64, 19}, {256, 83}, {256, 128}} {
		n, m := tc.n, tc.n/2
		kernel := make([]float64, n)
		for j := 0; j <= m; j++ {
			kernel[j] = rng.NormFloat64()
			kernel[(n-j)%n] = kernel[j]
		}
		resp, im := naiveDFT(kernel, make([]float64, n))
		for k := range im {
			if math.Abs(im[k]) > 1e-9 {
				t.Fatalf("n=%d: even kernel has imaginary response %g at bin %d", n, im[k], k)
			}
		}
		p, err := NewRealPlan(n, resp[:m+1])
		if err != nil {
			t.Fatal(err)
		}
		x := randomRow(rng, tc.row)
		zr, zi, live := packRow(x, m, l)
		if err := p.ConvolveLanes(zr, zi, live); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			var want float64
			for j := range x {
				want += x[j] * kernel[(i-j+n)%n]
			}
			if got := sample(zr, zi, l, i); math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d row %d sample %d = %g, want %g", n, tc.row, i, got, want)
			}
		}
	}
}

// Convolving with the unit impulse (response 1 at every bin) must return the
// signal unchanged.
func TestConvolveIdentityProperty(t *testing.T) {
	p, err := NewRealPlan(64, unitResponse(64))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		signal := make([]float64, 32)
		for i := range signal {
			signal[i] = float64(float32(rng.NormFloat64()))
		}
		l := rng.Intn(Lanes)
		zr, zi, live := packRow(signal, 32, l)
		if p.ConvolveLanes(zr, zi, live) != nil {
			return false
		}
		for i := range signal {
			if got := sample(zr, zi, l, i); math.Abs(got-signal[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRealPlanErrors(t *testing.T) {
	for _, n := range []int{0, -4, 1, 3, 6, 12, 2, 4, 8, 24} {
		resp := make([]float64, 1)
		if n > 0 {
			resp = make([]float64, n/2+1)
		}
		if _, err := NewRealPlan(n, resp); err == nil {
			t.Errorf("NewRealPlan(%d) accepted a bad size", n)
		}
	}
	if _, err := NewRealPlan(16, make([]float64, 8)); err == nil {
		t.Error("NewRealPlan accepted a response without the Nyquist bin")
	}
	p, err := NewRealPlan(16, unitResponse(16))
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, p.WorkLen())
	if err := p.ConvolveLanes(make([]float64, 8), good, 4); err == nil {
		t.Error("ConvolveLanes accepted a one-lane real work slice")
	}
	if err := p.ConvolveLanes(good, make([]float64, p.WorkLen()+1), 4); err == nil {
		t.Error("ConvolveLanes accepted a long imaginary work slice")
	}
	if err := p.ConvolveLanes(good, good, 5); err == nil {
		t.Error("ConvolveLanes accepted more live points than a quarter of the plan")
	}
	if err := p.ConvolveLanes(good, good, -1); err == nil {
		t.Error("ConvolveLanes accepted a negative live count")
	}
}

// Eight rows per call at the repository benchmark's width and the paper's,
// under each spelling this host has; ns/op is per call.
func BenchmarkConvolveLanes(b *testing.B) {
	for _, row := range []int{83, 2048} {
		n := NextPow2(2 * row)
		p, err := NewRealPlan(n, unitResponse(n))
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, row)
		for i := range x {
			x[i] = float64(i%17) - 8
		}
		zr, zi, live := packRow(x, n/2, 0)
		for _, sp := range spellings() {
			b.Run(strconv.Itoa(row)+"/"+sp.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := p.convolve(sp.k, zr, zi, live); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
