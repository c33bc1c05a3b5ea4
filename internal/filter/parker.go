package filter

import (
	"fmt"
	"math"
)

// Parker holds the short-scan redundancy weights of Parker (Med. Phys. 9,
// 1982) extended to offset principal points. A full 360° scan measures
// every ray twice, which the FDK quadrature absorbs as a factor ½; a
// short scan over π + 2γ_m measures some rays twice and some once, so each
// projection pixel is weighted such that every conjugate ray pair sums to
// one. The weights depend on the projection angle β and the in-fan angle γ
// of the pixel's column — i.e. on (p, u), orthogonal to the FDK cosine
// weight's (v, u) dependence — and are applied before ramp filtering.
//
// The paper evaluates full scans only; Parker support extends the
// framework to the half-scan acquisitions common on clinical C-arm CBCT
// (the 7th-generation devices the paper's introduction motivates). The
// decomposition is unaffected: weights touch the filtering stage only.
type Parker struct {
	nu, np  int
	weights []float32 // np × nu
}

// NewParker builds the weight table. gamma(u) = atan((u−cu)·du/dsd);
// angles are the per-projection rotation angles β relative to the scan
// start; scanRange is the total angular coverage, which must be at least
// π + 2γ_m (an exact short scan) and below 2π (where no weighting is
// needed).
func NewParker(nu int, du, dsd, sigmaU float64, angles []float64, scanRange float64) (*Parker, error) {
	if nu <= 0 {
		return nil, fmt.Errorf("filter: parker NU=%d must be positive", nu)
	}
	if du <= 0 || dsd <= 0 {
		return nil, fmt.Errorf("filter: parker du=%g dsd=%g must be positive", du, dsd)
	}
	if len(angles) == 0 {
		return nil, fmt.Errorf("filter: parker needs projection angles")
	}
	cu := (float64(nu)-1)/2 + sigmaU
	extent := math.Max(cu, float64(nu)-1-cu) * du
	gammaM := math.Atan2(extent, dsd)
	minRange := math.Pi + 2*gammaM
	if scanRange < minRange-1e-9 {
		return nil, fmt.Errorf("filter: scan range %.4f rad below the short-scan minimum π+2γm = %.4f", scanRange, minRange)
	}
	if scanRange >= 2*math.Pi-1e-9 {
		return nil, fmt.Errorf("filter: scan range %.4f rad is a full scan; Parker weighting does not apply", scanRange)
	}
	// With coverage beyond the exact minimum, use the generalised
	// (over-scan) form: treat the surplus as an enlarged effective fan.
	gammaEff := (scanRange - math.Pi) / 2

	p := &Parker{nu: nu, np: len(angles), weights: make([]float32, len(angles)*nu)}
	base := angles[0]
	for pi, beta := range angles {
		b := beta - base
		for u := 0; u < nu; u++ {
			gamma := math.Atan2((float64(u)-cu)*du, dsd)
			p.weights[pi*nu+u] = float32(parkerWeight(b, gamma, gammaEff))
		}
	}
	return p, nil
}

// parkerWeight evaluates the classic three-branch Parker window for
// projection angle b ∈ [0, π+2γm] and ray fan angle gamma.
func parkerWeight(b, gamma, gammaM float64) float64 {
	switch {
	case b < 0:
		return 0
	case b <= 2*(gammaM-gamma):
		s := math.Sin(math.Pi / 4 * b / (gammaM - gamma))
		return s * s
	case b <= math.Pi-2*gamma:
		return 1
	case b <= math.Pi+2*gammaM:
		s := math.Sin(math.Pi / 4 * (math.Pi + 2*gammaM - b) / (gammaM + gamma))
		return s * s
	default:
		return 0
	}
}

// ApplyRow weights one detector row of projection p in place.
func (pk *Parker) ApplyRow(row []float32, p int) error {
	if len(row) != pk.nu {
		return fmt.Errorf("filter: parker row length %d, want %d", len(row), pk.nu)
	}
	if p < 0 || p >= pk.np {
		return fmt.Errorf("filter: parker projection %d outside [0,%d)", p, pk.np)
	}
	w := pk.weights[p*pk.nu : (p+1)*pk.nu]
	for u := range row {
		row[u] *= w[u]
	}
	return nil
}

// ApplyRows weights count contiguous rows stored back to back in data,
// where buffer row i belongs to projection pOf(i).
func (pk *Parker) ApplyRows(data []float32, count int, pOf func(i int) int) error {
	if len(data) != count*pk.nu {
		return fmt.Errorf("filter: parker buffer holds %d values, want %d rows × %d", len(data), count, pk.nu)
	}
	for i := 0; i < count; i++ {
		if err := pk.ApplyRow(data[i*pk.nu:(i+1)*pk.nu], pOf(i)); err != nil {
			return err
		}
	}
	return nil
}
