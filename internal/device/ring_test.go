package device

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"distfdk/internal/geometry"
)

// The texture border is data, so it must stay data: after a wrapping
// LoadRows sequence — Release between the loads, Reset at the end — every
// apron float, the whole zero slot and the slack of RawData() are +0, each
// resident row is still exactly its NU samples, and Row hands out no slice
// an append could carry past them.
func TestRingApronStaysZero(t *testing.T) {
	const nu, np, nv, h = 5, 3, 24, 8
	host := hostStack(nu, np, nv)
	r, err := NewProjRing(New("apron", 0, 1), nu, np, h)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sample := make([]bool, len(r.RawData()))
	for slot := 0; slot < h; slot++ {
		for p := 0; p < np; p++ {
			for u := 0; u < nu; u++ {
				sample[r.RowBase(slot)+p*r.ProjStride()+u] = true
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for i, x := range r.RawData() {
			if !sample[i] && math.Float32bits(x) != 0 {
				t.Fatalf("%s: float %d of the store is %g (bits %#x), not a sample and not +0", when, i, x, math.Float32bits(x))
			}
		}
	}
	check("fresh")
	for _, rows := range []geometry.RowRange{{Lo: 0, Hi: 6}, {Lo: 4, Hi: 10}, {Lo: 7, Hi: 14}, {Lo: 12, Hi: 19}} {
		r.Release(rows.Lo)
		dr := geometry.DifferentialRows(r.Valid(), rows)
		if err := r.LoadRows(host, dr); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after rows %v", dr))
		for v := rows.Lo; v < rows.Hi; v++ {
			for p := 0; p < np; p++ {
				got, err := r.Row(v, p)
				want, _ := host.Row(v, p)
				if err != nil || len(got) != nu || cap(got) != nu || !slices.Equal(got, want) {
					t.Fatalf("row %d projection %d = %v (%v, cap %d), want %v", v, p, got, err, cap(got), want)
				}
			}
		}
	}
	r.Release(15)
	check("after Release")
	r.Reset()
	check("after Reset")
}
