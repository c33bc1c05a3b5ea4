package geometry_test

import (
	"fmt"

	"distfdk/internal/geometry"
)

// ExampleSystem_ComputeAB shows the heart of the paper's input
// decomposition: asking which detector rows a volume slab needs.
func ExampleSystem_ComputeAB() {
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 96, NV: 64, DU: 0.5, DV: 0.5,
		NP: 90,
		NX: 48, NY: 48, NZ: 40, DX: 0.25, DY: 0.25, DZ: 0.25,
	}
	bottom := sys.ComputeAB(0, 10) // first 10 slices
	top := sys.ComputeAB(30, 40)   // last 10 slices
	overlap := bottom.Intersect(top)
	fmt.Printf("bottom slab rows %v, top slab rows %v, overlap %d rows\n",
		bottom, top, overlap.Len())
	// Output:
	// bottom slab rows [16,27), top slab rows [37,48), overlap 0 rows
}

// ExampleSystem_Matrix projects a voxel through the general projection
// matrix of Section 4.1.
func ExampleSystem_Matrix() {
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 96, NV: 64, DU: 0.5, DV: 0.5,
		NP: 90,
		NX: 48, NY: 48, NZ: 40, DX: 0.25, DY: 0.25, DZ: 0.25,
	}
	m := sys.Matrix(0) // angle φ = 0
	// The exact volume centre lands on the detector centre with unit
	// normalised depth.
	u, v, z := m.Project(23.5, 23.5, 19.5)
	fmt.Printf("u=%.1f v=%.1f z=%.1f\n", u, v, z)
	// Output:
	// u=47.5 v=31.5 z=1.0
}

// ExampleDifferentialRows shows the streaming update rule of Equation 6:
// only the rows beyond the previous slab's range are loaded.
func ExampleDifferentialRows() {
	prev := geometry.RowRange{Lo: 10, Hi: 30}
	cur := geometry.RowRange{Lo: 18, Hi: 38}
	diff := geometry.DifferentialRows(prev, cur)
	fmt.Printf("need %v, already resident %v, load only %v\n",
		cur, prev.Intersect(cur), diff)
	// Output:
	// need [18,38), already resident [18,30), load only [30,38)
}
