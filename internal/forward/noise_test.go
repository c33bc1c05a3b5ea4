package forward

import (
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/filter"
	"distfdk/internal/phantom"
	"distfdk/internal/projection"
)

func TestPoissonSamplerMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 3, 20, 200, 5000} {
		const n = 4000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			k := poisson(rng, lambda)
			sum += k
			sum2 += k * k
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		// Poisson: mean == variance == λ. Allow 4σ sampling slack.
		tol := 4 * math.Sqrt(lambda/n) * math.Max(1, math.Sqrt(lambda))
		if math.Abs(mean-lambda) > tol+0.1 {
			t.Fatalf("λ=%g: sample mean %g", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.25 {
			t.Fatalf("λ=%g: sample variance %g", lambda, variance)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -3) != 0 {
		t.Fatal("non-positive rate must yield 0")
	}
}

func TestAddPoissonNoise(t *testing.T) {
	sys := testSystem()
	sys.NP = 4
	st, err := Project(sys, phantom.UniformSphere(0.4, 1), scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := append([]float32(nil), st.Data...)
	beer := &filter.Beer{Dark: 0, Blank: 1e5}
	if err := AddPoissonNoise(st, beer, 7); err != nil {
		t.Fatal(err)
	}
	// Noise changes the data but stays unbiased: the mean deviation is
	// far below the per-sample deviation.
	var diffSum, absSum float64
	var changed int
	for i := range clean {
		d := float64(st.Data[i] - clean[i])
		diffSum += d
		absSum += math.Abs(d)
		if d != 0 {
			changed++
		}
	}
	if changed < len(clean)/2 {
		t.Fatalf("noise changed only %d/%d samples", changed, len(clean))
	}
	n := float64(len(clean))
	if math.Abs(diffSum/n) > 0.2*absSum/n {
		t.Fatalf("noise biased: mean %g vs mean|.| %g", diffSum/n, absSum/n)
	}
	// Determinism.
	st2, _ := Project(sys, phantom.UniformSphere(0.4, 1), scale, 1)
	if err := AddPoissonNoise(st2, beer, 7); err != nil {
		t.Fatal(err)
	}
	for i := range st.Data {
		if st.Data[i] != st2.Data[i] {
			t.Fatal("same seed produced different noise")
		}
	}
	// More photons → less noise.
	noisy := func(blank float64, seed int64) float64 {
		s, _ := Project(sys, phantom.UniformSphere(0.4, 1), scale, 1)
		if err := AddPoissonNoise(s, &filter.Beer{Blank: blank}, seed); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range s.Data {
			d := float64(s.Data[i] - clean[i])
			sum += d * d
		}
		return math.Sqrt(sum / float64(len(s.Data)))
	}
	if low, high := noisy(1e6, 3), noisy(1e3, 3); low >= high {
		t.Fatalf("noise did not shrink with photon count: %g vs %g", low, high)
	}
	// Validation.
	if err := AddPoissonNoise(st, &filter.Beer{Dark: 10, Blank: 5}, 1); err == nil {
		t.Fatal("expected blank<=dark error")
	}
}

// Beer.Counts, the forward map, reads only the scalar levels while
// Beer.Apply inverts through the per-pixel frames: noise simulated with a
// Beer that carries frames would mix two calibrations, so it is refused and
// the stack is left alone.
func TestAddPoissonNoiseRefusesCalibrationFrames(t *testing.T) {
	refusesCalibrationFrames(t, func(st *projection.Stack, beer *filter.Beer) error {
		return AddPoissonNoise(st, beer, 1)
	})
}

// Counts synthesised from the scalar levels would be preprocessed through
// the frames: ToCounts refuses a Beer that carries them too.
func TestToCountsRefusesCalibrationFrames(t *testing.T) {
	refusesCalibrationFrames(t, ToCounts)
}

// refusesCalibrationFrames fails the test unless convert returns an error
// for a Beer carrying a dark or a blank frame and leaves the stack alone.
func refusesCalibrationFrames(t *testing.T, convert func(*projection.Stack, *filter.Beer) error) {
	t.Helper()
	sys := testSystem()
	sys.NP = 2
	st, err := Project(sys, phantom.UniformSphere(0.4, 1), scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := append([]float32(nil), st.Data...)
	// Frames Beer.Apply accepts for this stack.
	frame := make([]float32, len(clean))
	for i := range frame {
		frame[i] = 2e4
	}
	for name, beer := range map[string]*filter.Beer{
		"dark frame":  {Blank: 1e5, DarkFrame: make([]float32, len(clean))},
		"blank frame": {Blank: 1e5, BlankFrame: frame},
	} {
		if err := convert(st, beer); err == nil {
			t.Errorf("%s: accepted", name)
		}
		for i := range clean {
			if st.Data[i] != clean[i] {
				t.Fatalf("%s: sample %d changed to %g from %g", name, i, st.Data[i], clean[i])
			}
		}
	}
}
