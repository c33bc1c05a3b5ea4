package iterative

import (
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
)

// ReconstructMLEM runs the maximum-likelihood EM algorithm (Shepp–Vardi),
// the method behind the DMLEM framework of Table 2, with optional ordered
// subsets (OSEM when Options.Subsets > 1):
//
//	x ← x · ( A_sᵀ ( b_s ⊘ (A_s x) ) ) ⊘ ( A_sᵀ 1 )
//
// The multiplicative update preserves nonnegativity by construction, so
// Options.NonNegative is implied; measured data must be nonnegative.
// Options.Relaxation is ignored (EM has no step size).
func ReconstructMLEM(sys *geometry.System, measured *projection.Stack, opts Options) (*Result, error) {
	const eps = 1e-8
	return solve(sys, measured, opts, method{
		multiplicative: true,
		// b_s ⊘ (A_s x), the projection floored at eps.
		back: func(b, ax, _ float32) float32 {
			if ax < eps {
				ax = eps
			}
			return b / ax
		},
		// x ·= z ⊘ C
		update: func(x, z, c float32) float32 { return x * (z / c) },
	})
}
