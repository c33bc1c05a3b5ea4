package filter

import (
	"fmt"
	"math"
)

// Beer converts raw photon counts to line-integral projections according to
// Beer's law (Equation 1 of the paper):
//
//	P = −log( (λ − λ_dark) / (λ_blank − λ_dark) )
//
// λ_dark is the detector's background offset and λ_blank the flat-field
// (normalisation) scan. The paper's coffee bean dataset uses λ_dark = 0 and
// λ_blank = 2¹⁶ (Table 4); TomoBank datasets carry per-scan dark/blank
// frames, which the per-pixel variant supports.
type Beer struct {
	// Dark and Blank are scalar calibration levels used when the
	// per-pixel frames are nil.
	Dark, Blank float64
	// DarkFrame and BlankFrame, when non-nil, supply per-pixel
	// calibration of the same length as every projection.
	DarkFrame, BlankFrame []float32
}

// Validate checks the calibration parameters.
func (b *Beer) Validate(pixels int) error {
	if b.DarkFrame == nil && b.BlankFrame == nil {
		if b.Blank <= b.Dark {
			return fmt.Errorf("filter: blank level %g must exceed dark level %g", b.Blank, b.Dark)
		}
		return nil
	}
	if b.DarkFrame != nil && len(b.DarkFrame) != pixels {
		return fmt.Errorf("filter: dark frame has %d pixels, want %d", len(b.DarkFrame), pixels)
	}
	if b.BlankFrame != nil && len(b.BlankFrame) != pixels {
		return fmt.Errorf("filter: blank frame has %d pixels, want %d", len(b.BlankFrame), pixels)
	}
	return nil
}

// Apply converts the photon counts in data to projection values in place.
// Non-physical counts (at or below the dark level) are clamped to the
// smallest positive transmittance so the logarithm stays finite, matching
// the defensive behaviour of production preprocessing.
func (b *Beer) Apply(data []float32) error {
	if err := b.Validate(len(data)); err != nil {
		return err
	}
	const minTransmittance = 1e-6
	for i, lambda := range data {
		dark := b.Dark
		blank := b.Blank
		if b.DarkFrame != nil {
			dark = float64(b.DarkFrame[i])
		}
		if b.BlankFrame != nil {
			blank = float64(b.BlankFrame[i])
		}
		t := (float64(lambda) - dark) / (blank - dark)
		if t < minTransmittance {
			t = minTransmittance
		}
		data[i] = float32(-math.Log(t))
	}
	return nil
}

// Counts performs the inverse mapping, turning a line integral P back into
// an expected photon count λ = λ_dark + (λ_blank − λ_dark)·exp(−P). The
// forward projector uses it to synthesise realistic raw detector frames.
// It reads the scalar levels only. The product is rounded before the add
// (float64(a*b)), so no host contracts the two into a fused multiply-add.
func (b *Beer) Counts(p float64) float64 {
	dark, blank := b.Dark, b.Blank
	if p == 0 {
		// exp(−0) = 1: a ray that misses the object costs no Exp.
		return dark + (blank - dark)
	}
	return dark + float64((blank-dark)*math.Exp(-p))
}
