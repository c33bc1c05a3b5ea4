package device

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"distfdk/internal/geometry"
)

// FillRows is LoadRows with the copy replaced by a callback: same admitted
// range, same resident window, same ledger charge, same slot contents —
// across wrap-around loads and parallel fills.
func TestFillRowsMatchesLoadRows(t *testing.T) {
	const nu, np, nv, h = 5, 3, 24, 8
	host := hostStack(nu, np, nv)
	for _, workers := range []int{1, 4} {
		dl := New("load", 0, 1)
		rl, err := NewProjRing(dl, nu, np, h)
		if err != nil {
			t.Fatal(err)
		}
		df := New("fill", 0, workers)
		rf, err := NewProjRing(df, nu, np, h)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(v, p int, dst []float32) error {
			row, err := host.Row(v, p)
			if err != nil {
				return err
			}
			copy(dst, row)
			return nil
		}
		// A streaming schedule with overlap and a wrap-around load.
		schedule := []geometry.RowRange{{Lo: 0, Hi: 6}, {Lo: 4, Hi: 10}, {Lo: 7, Hi: 14}}
		for _, rows := range schedule {
			rl.Release(rows.Lo)
			rf.Release(rows.Lo)
			dr := geometry.DifferentialRows(rl.Valid(), rows)
			if err := rl.LoadRows(host, dr); err != nil {
				t.Fatal(err)
			}
			if err := rf.FillRows(dr, fill); err != nil {
				t.Fatal(err)
			}
			if rl.Valid() != rf.Valid() {
				t.Fatalf("workers %d: valid %v != %v", workers, rf.Valid(), rl.Valid())
			}
		}
		lraw, fraw := rl.RawData(), rf.RawData()
		for i := range lraw {
			if lraw[i] != fraw[i] {
				t.Fatalf("workers %d: slot %d: fill %g != load %g", workers, i, fraw[i], lraw[i])
			}
		}
		ll, lf := dl.Snapshot(), df.Snapshot()
		if ll.H2DBytes != lf.H2DBytes || ll.H2DOps != lf.H2DOps {
			t.Fatalf("workers %d: ledger fill %+v != load %+v", workers, lf, ll)
		}
		rl.Close()
		rf.Close()
	}
}

// A failing fill must leave the resident range un-extended so the caller
// can retry the whole admission.
func TestFillRowsErrorLeavesRangeUnchanged(t *testing.T) {
	d := New("fill-err", 0, 1)
	r, err := NewProjRing(d, 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	boom := errors.New("boom")
	if err := r.FillRows(geometry.RowRange{Lo: 0, Hi: 4}, func(v, p int, dst []float32) error {
		if v == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !r.Valid().IsEmpty() {
		t.Fatalf("resident range %v after failed fill, want empty", r.Valid())
	}
}

// The texture border is data, so it must stay data: after a wrapping
// LoadRows sequence and after a parallel FillRows over the same schedule —
// Release between the loads, Reset at the end — every apron float, the
// whole zero slot and the slack of RawData() are +0, each resident row is
// still exactly its NU samples, and no fill can reach past them.
func TestRingApronStaysZero(t *testing.T) {
	const nu, np, nv, h = 5, 3, 24, 8
	host := hostStack(nu, np, nv)
	for _, workers := range []int{0, 4} {
		d := New("apron", 0, max(workers, 1))
		r, err := NewProjRing(d, nu, np, h)
		if err != nil {
			t.Fatal(err)
		}
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
					t.Fatalf("workers %d, %s: float %d of the store is %g (bits %#x), not a sample and not +0", workers, when, i, x, math.Float32bits(x))
				}
			}
		}
		check("fresh")
		for _, rows := range []geometry.RowRange{{Lo: 0, Hi: 6}, {Lo: 4, Hi: 10}, {Lo: 7, Hi: 14}, {Lo: 12, Hi: 19}} {
			r.Release(rows.Lo)
			dr := geometry.DifferentialRows(r.Valid(), rows)
			if workers == 0 {
				err = r.LoadRows(host, dr)
			} else {
				err = r.FillRows(dr, func(v, p int, dst []float32) error {
					if len(dst) != nu || cap(dst) != nu {
						t.Errorf("fill of row %d, projection %d got len %d cap %d, want %d", v, p, len(dst), cap(dst), nu)
					}
					row, err := host.Row(v, p)
					copy(dst, row)
					return err
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("after rows %v", dr))
			for v := rows.Lo; v < rows.Hi; v++ {
				for p := 0; p < np; p++ {
					got, err := r.Row(v, p)
					want, _ := host.Row(v, p)
					if err != nil || len(got) != nu || !slices.Equal(got, want) {
						t.Fatalf("workers %d: row %d projection %d = %v (%v), want %v", workers, v, p, got, err, want)
					}
				}
			}
		}
		r.Release(15)
		check("after Release")
		r.Reset()
		check("after Reset")
		r.Close()
	}
}
