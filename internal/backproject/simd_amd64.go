//go:build amd64

package backproject

import "distfdk/internal/cpufeat"

// simdAvailable gates the dispatch to the assembly: it needs AVX2 (and an
// OS that saves YMM state), probed once at startup.
func simdAvailable() bool { return cpufeat.AVX2() }

// fusedTileAVX2 back-projects the covered columns [c0,c1) of one volume row
// in the h slices of a k-tile, for one projection whose u and w are the
// same in all of them, with 8-wide AVX2 vectors per the coordinate contract
// in simd.go: groups wholly inside the interior sub-span [f0,f1) run the
// unguarded body, the rest run the guarded texture-border body — what
// fusedTileGo does lane by lane. Implemented in simd_amd64.s; requires
// AVX2.
//
//go:noescape
func fusedTileAVX2(a *simdRowArgs)
