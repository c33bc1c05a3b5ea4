package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type spelling struct {
	name string
	k    *passes
}

// lane returns a copy of lane l of a lane workspace: one row's m points.
func lane(z []float64, l int) []float64 {
	row := make([]float64, len(z)/Lanes)
	for j := range row {
		row[j] = z[Lanes*j+l]
	}
	return row
}

// sameLanes fails unless every lane of the workspace (zr, zi) holds the
// bits of the per-row result (wr[l], wi[l]) on its first points points.
func sameLanes(t *testing.T, what string, zr, zi []float64, wr, wi [][]float64, points int) {
	t.Helper()
	for l := range wr {
		gr, gi := lane(zr, l), lane(zi, l)
		for j := 0; j < points; j++ {
			if math.Float64bits(gr[j]) != math.Float64bits(wr[l][j]) || math.Float64bits(gi[j]) != math.Float64bits(wi[l][j]) {
				t.Fatalf("%s: lane %d point %d: (%g,%g), the per-row transform (%g,%g)", what, l, j, gr[j], gi[j], wr[l][j], wi[l][j])
			}
		}
	}
}

// Each lane of every spelling is the per-row transform, bit for bit: pass
// by pass on eight different random rows, and as whole calls on full,
// short and odd rows with one to eight lanes in use (the rest zero, as a
// batch's tail leaves them), at every size from the plans that have no
// middle stage at all up past the paper's detector width. A lane that read
// or wrote another lane, or an operand order the per-row loop does not use,
// changes bits here.
func TestLanesMatchRowTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := MinRealSize; n <= 8192; n <<= 1 {
		resp := make([]float64, n/2+1)
		for k := range resp {
			resp[k] = rng.Float64()
		}
		p, err := NewRealPlan(n, resp)
		if err != nil {
			t.Fatal(err)
		}
		m, short := n/2, max(1, n/4-5)
		for _, sp := range spellings() {
			for _, pass := range []struct {
				name  string
				lanes func(zr, zi []float64)
				row   func(zr, zi []float64)
			}{
				{"twiddle", func(zr, zi []float64) {
					sp.k.twiddle(p.ends(zr, zi, short))
				}, func(zr, zi []float64) { twiddleGo(p.endsRow(zr, zi, short)) }},
				{"untwiddle", func(zr, zi []float64) {
					sp.k.untwiddle(p.ends(zr, zi, short))
				}, func(zr, zi []float64) { untwiddleGo(p.endsRow(zr, zi, short)) }},
				{"difStages", func(zr, zi []float64) { sp.k.difStages(zr, zi, p.cos, p.sin) },
					func(zr, zi []float64) { difStagesGo(zr, zi, p.cos, p.sin) }},
				{"ditStages", func(zr, zi []float64) { sp.k.ditStages(zr, zi, p.cos, p.sin) },
					func(zr, zi []float64) { ditStagesGo(zr, zi, p.cos, p.sin) }},
				{"difRadix4", func(zr, zi []float64) { sp.k.difRadix4(zr, zi) }, difRadix4Go},
				{"ditRadix4", func(zr, zi []float64) { sp.k.ditRadix4(zr, zi) }, ditRadix4Go},
				{"pairs", func(zr, zi []float64) { p.pairs(sp.k, zr, zi) }, p.pairsRow},
				{"forward", func(zr, zi []float64) { p.forward(sp.k, zr, zi, m/2-1) },
					func(zr, zi []float64) { p.forwardRow(zr, zi, m/2-1) }},
				{"inverse", func(zr, zi []float64) { p.inverse(sp.k, zr, zi, short) },
					func(zr, zi []float64) { p.inverseRow(zr, zi, short) }},
			} {
				zr, zi := randomRow(rng, Lanes*m), randomRow(rng, Lanes*m)
				wr, wi := make([][]float64, Lanes), make([][]float64, Lanes)
				for l := range wr {
					wr[l], wi[l] = lane(zr, l), lane(zi, l)
					pass.row(wr[l], wi[l])
				}
				pass.lanes(zr, zi)
				sameLanes(t, fmt.Sprintf("n=%d %s %s", n, sp.name, pass.name), zr, zi, wr, wi, m)
			}
			for _, rowLen := range []int{m, m - 1, m/2 + 1, 1} {
				for rows := 1; rows <= Lanes; rows++ {
					zr, zi := make([]float64, Lanes*m), make([]float64, Lanes*m)
					wr, wi := make([][]float64, rows), make([][]float64, rows)
					var live int
					for l := range wr {
						wr[l], wi[l], live = packRow(randomRow(rng, rowLen), m, 0)
						wr[l], wi[l] = lane(wr[l], 0), lane(wi[l], 0)
						for j := 0; j < live; j++ {
							zr[Lanes*j+l], zi[Lanes*j+l] = wr[l][j], wi[l][j]
						}
						if err := p.convolveRow(wr[l], wi[l], live); err != nil {
							t.Fatal(err)
						}
					}
					if err := p.convolve(sp.k, zr, zi, live); err != nil {
						t.Fatal(err)
					}
					sameLanes(t, fmt.Sprintf("n=%d %s: %d rows of %d", n, sp.name, rows, rowLen), zr, zi, wr, wi, live)
				}
			}
		}
	}
}
