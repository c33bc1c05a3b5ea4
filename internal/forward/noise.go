package forward

import (
	"fmt"
	"math"
	"math/rand"

	"distfdk/internal/filter"
	"distfdk/internal/projection"
)

// AddPoissonNoise replaces each line integral in the stack with the value
// recovered from a Poisson-distributed photon count: P → λ = Beer⁻¹(P) →
// k ~ Poisson(λ) → P' = Beer(k). This is the physical noise model of X-ray
// detection; lower λ_blank means fewer photons and noisier projections.
// The generator is seeded, so noisy datasets are reproducible. The forward
// map Beer.Counts reads only the scalar levels, so a Beer carrying per-pixel
// frames is refused: Beer.Apply would invert it through another calibration.
func AddPoissonNoise(stack *projection.Stack, beer *filter.Beer, seed int64) error {
	if beer.DarkFrame != nil || beer.BlankFrame != nil {
		return fmt.Errorf("forward: noise is simulated with scalar dark/blank levels, not per-pixel frames")
	}
	if beer.Blank <= beer.Dark {
		return fmt.Errorf("forward: blank level %g must exceed dark %g", beer.Blank, beer.Dark)
	}
	rng := rand.New(rand.NewSource(seed))
	for i, p := range stack.Data {
		lambda := beer.Counts(float64(p)) - beer.Dark // expected quanta
		k := poisson(rng, lambda)
		stack.Data[i] = float32(k + beer.Dark)
	}
	// Convert counts back to line integrals.
	return beer.Apply(stack.Data)
}

// poisson samples Poisson(lambda): Knuth's product method for small rates,
// the normal approximation beyond (relative error < 1e-3 for λ > 50, far
// below quantum noise itself).
func poisson(rng *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		k := math.Round(lambda + float64(math.Sqrt(lambda)*rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}
