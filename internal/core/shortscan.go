package core

import (
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
)

// NewParker builds the short-scan redundancy weights for a system, or
// returns nil for a full 360° scan where no weighting applies. The weight
// table is indexed by global projection index, so every rank can share it
// regardless of its Np window.
func NewParker(sys *geometry.System) (*filter.Parker, error) {
	if !sys.IsShortScan() {
		return nil, nil
	}
	angles := make([]float64, sys.NP)
	for p := range angles {
		angles[p] = sys.Angle(p)
	}
	return filter.NewParker(sys.NU, sys.DU, sys.DSD, sys.SigmaU, angles, sys.AngleStep()*float64(sys.NP))
}
