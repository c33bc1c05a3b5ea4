package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/cpufeat"
	"distfdk/internal/fft"
)

// The row lengths the transform is pinned at: the plans too short for a
// vector stage, both parities around the power-of-two edges, the repository
// benchmark's 83 and the paper's 2048.
var transformWidths = []int{1, 2, 3, 4, 5, 8, 9, 64, 65, 83, 100, 128, 2048}

var allWindows = []Window{RamLak, SheppLogan, Cosine, Hamming, Hann}

func widthConfig(nu int, w Window) Config {
	return Config{NU: nu, NV: 5, DU: 0.4, DV: 0.4, DSD: 350, SigmaU: 0.3, Window: w, Scale: 0.02, RampPitch: 0.3}
}

func randomRow(rng *rand.Rand, nu int) []float32 {
	row := make([]float32, nu)
	for i := range row {
		row[i] = float32(rng.NormFloat64()*3 + 1)
	}
	return row
}

// FFTSize returns the transform length used for row filtering.
func (f *FDK) FFTSize() int { return f.plan.Size() }

// FilterRow filters one detector row in place, as a batch of one. v is the
// physical detector row index of the data (used to look up the cosine
// weight); it must lie in [0, NV). A nil s borrows a workspace from the
// filter's pool for the call.
func (f *FDK) FilterRow(row []float32, v int, s *scratch) error {
	if len(row) != f.nu {
		return fmt.Errorf("filter: row length %d, want %d", len(row), f.nu)
	}
	if s == nil {
		s = f.pool.Get().(*scratch)
		defer f.pool.Put(s)
	}
	vs := [1]int{v}
	return f.filterBatch(row, vs[:], s)
}

// filtered returns a filtered copy of src, which is left as it was.
func filtered(t *testing.T, f *FDK, src []float32, v int, s *scratch) []float32 {
	t.Helper()
	row := append([]float32(nil), src...)
	if err := f.FilterRow(row, v, s); err != nil {
		t.Fatal(err)
	}
	return row
}

func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: sample %d: %g (%#x) != %g (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// spellings runs body once per spelling of the transform and the pack this
// host has, masking the wider ones off as a narrower host would not have
// them: the ZMM lanes, the YMM pairs (AVX-512 masked), the Go loops (AVX2
// masked).
func spellings(t *testing.T, body func(name string)) {
	t.Helper()
	for _, sp := range []struct {
		name      string
		avx2, avx bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}} {
		if sp.avx && !cpufeat.AVX512() || sp.avx2 && !cpufeat.AVX2() {
			continue
		}
		restore512 := cpufeat.SetAVX512ForTest(sp.avx)
		restore2 := cpufeat.SetAVX2ForTest(sp.avx2)
		body(sp.name)
		restore2()
		restore512()
	}
}

// The spellings are one arithmetic: every filtered row keeps its bits
// whichever runs — every width, every window, a row alone and the rows of
// a batch and its tail.
func TestSpellingsFilterTheSameRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, nu := range transformWidths {
		for _, win := range allWindows {
			f, err := NewFDK(widthConfig(nu, win))
			if err != nil {
				t.Fatal(err)
			}
			const count = fft.Lanes + 5
			src := randomRow(rng, count*nu)
			vOf := func(i int) int { return i % f.nv }
			var wantRow, wantRows []float32
			spellings(t, func(name string) {
				row := filtered(t, f, src[:nu], 3, f.newScratch())
				rows := append([]float32(nil), src...)
				if err := f.FilterRows(rows, count, vOf, 1); err != nil {
					t.Fatal(err)
				}
				if wantRow == nil {
					wantRow, wantRows = row, rows
					return
				}
				sameBits(t, fmt.Sprintf("nu=%d %v: one row, %s", nu, win, name), wantRow, row)
				sameBits(t, fmt.Sprintf("nu=%d %v: %d rows, %s", nu, win, count, name), wantRows, rows)
			})
		}
	}
}

// A filtered row's bytes depend on the row and its v only: alone on a fresh
// workspace, on a workspace another batch left dirty, on a pooled one, and
// inside FilterRows at one to three workers, among different neighbours at
// every lane position of a full batch and as a batch's tail, under every
// spelling, it comes out the same.
func TestFilteredRowIsIndependentOfNeighbours(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, nu := range []int{9, 64, 83} {
		f, err := NewFDK(widthConfig(nu, Hann))
		if err != nil {
			t.Fatal(err)
		}
		const v = 2
		row := randomRow(rng, nu)
		want := filtered(t, f, row, v, f.newScratch())
		spellings(t, func(name string) {
			dirty := f.newScratch()
			if err := f.FilterRows(randomRow(rng, fft.Lanes*nu), fft.Lanes, func(i int) int { return i % 5 }, 1); err != nil {
				t.Fatal(err)
			}
			if err := f.FilterRow(randomRow(rng, nu), 0, dirty); err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("nu=%d %s: dirty workspace", nu, name), want, filtered(t, f, row, v, dirty))
			sameBits(t, fmt.Sprintf("nu=%d %s: pooled workspace", nu, name), want, filtered(t, f, row, v, nil))

			const count = 2*fft.Lanes + 1
			for workers := 1; workers <= 3; workers++ {
				for at := 0; at < count; at++ {
					data := randomRow(rng, count*nu)
					copy(data[at*nu:], row)
					vOf := func(i int) int {
						if i == at {
							return v
						}
						return i % 5
					}
					if err := f.FilterRows(data, count, vOf, workers); err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("nu=%d %s: row %d of %d at %d workers", nu, name, at, count, workers), want, data[at*nu:(at+1)*nu])
				}
			}
		})
	}
}

// ulp32 is the spacing of float32 values at magnitude x.
func ulp32(x float64) float64 {
	f := float32(math.Abs(x))
	return float64(math.Nextafter32(f, float32(math.Inf(1))) - f)
}

// Accuracy, against two references that share no code with the transform.
// With the Ram-Lak window the filter is exactly the linear convolution of the
// weighted row with ramp.go's spatial kernel h (times the Δu quadrature
// weight and the scale), summed directly in float64; with any window it is
// what the previous real-input transform computed, kept as oracle_test.go.
// Bound: every output within one float32 ulp at the row's peak magnitude
// (half of it is the rounding to float32 itself).
func TestFilterRowAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, nu := range transformWidths {
		for _, win := range allWindows {
			cfg := widthConfig(nu, win)
			f, err := NewFDK(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := randomRow(rng, nu)
			const v = 1
			got := filtered(t, f, src, v, nil)

			// The weighted row, rounded to float32 as the filter rounds it.
			n := f.FFTSize()
			x := make([]float64, n)
			for u := 0; u < nu; u++ {
				x[u] = float64(src[u] * f.weights[v*nu+u])
			}
			resp, err := rampResponse(n, cfg.RampPitch, win, cfg.Scale)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, want []float64) {
				t.Helper()
				var peak float64
				for _, w := range want[:nu] {
					peak = math.Max(peak, math.Abs(w))
				}
				bound := ulp32(peak)
				for u := 0; u < nu; u++ {
					if d := math.Abs(float64(got[u]) - want[u]); d > bound {
						t.Fatalf("nu=%d %v sample %d: %g, %s gives %g (off by %g, bound %g)", nu, win, u, got[u], what, want[u], d, bound)
					}
				}
			}
			oracle, err := oracleFilter(x, resp)
			if err != nil {
				t.Fatal(err)
			}
			check("the previous transform", oracle)

			if win != RamLak {
				continue
			}
			du := cfg.RampPitch
			h := func(lag int) float64 {
				switch {
				case lag == 0:
					return 1 / (4 * du * du)
				case lag%2 == 0:
					return 0
				}
				return -1 / (float64(lag) * float64(lag) * math.Pi * math.Pi * du * du)
			}
			direct := make([]float64, nu)
			for i := range direct {
				var acc float64
				for j := 0; j < nu; j++ {
					acc += x[j] * h(i-j)
				}
				direct[i] = acc * du * cfg.Scale
			}
			check("direct convolution", direct)
		}
	}
}

const canary = float32(-12345.678)

// flanked returns a slice of n floats cut from the middle of a buffer whose
// every other float is the canary, and the check that they still are.
func flanked(t *testing.T, n int) (mid []float32, intact func(what string)) {
	const pad = 16
	buf := make([]float32, n+2*pad)
	for i := range buf {
		buf[i] = canary
	}
	return buf[pad : pad+n : pad+n], func(what string) {
		t.Helper()
		for i, x := range buf {
			if (i < pad || i >= pad+n) && x != canary {
				t.Fatalf("%s: float %d outside the row was overwritten with %g", what, i-pad, x)
			}
		}
	}
}

// The row is one of a stack's rows whose neighbours other goroutines are
// filtering: not a byte beside it may change, for odd and even widths.
func TestFilterRowWritesOnlyItsRow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, nu := range transformWidths {
		f, err := NewFDK(widthConfig(nu, SheppLogan))
		if err != nil {
			t.Fatal(err)
		}
		row, intact := flanked(t, nu)
		copy(row, randomRow(rng, nu))
		before := append([]float32(nil), row...)
		if err := f.FilterRow(row, 0, nil); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("nu=%d", nu)
		intact(what)
		if nu > 1 && math.Float32bits(row[0]) == math.Float32bits(before[0]) {
			t.Fatalf("%s: filtering left the row unfiltered", what)
		}
	}
}
