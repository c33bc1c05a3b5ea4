package main

import "distfdk/internal/cpufeat"

// fmaFLOPPerIter is the work of one fmaLoop iteration: 10 chains × 8
// lanes × (multiply + add).
const fmaFLOPPerIter = 160

// fmaLoop is the AVX2 FMA probe (probe_amd64.s).
//
//go:noescape
func fmaLoop(iters int64, v *[8]float32)

// peakLoop runs the widest float32 multiply-add loop this build has; it
// returns the FLOP it performed and a value that depends on all of them.
func peakLoop(iters int64) (int64, float32) {
	if !cpufeat.AVX2() {
		return scalarLoop(iters)
	}
	v := [8]float32{1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3}
	fmaLoop(iters, &v)
	return iters * fmaFLOPPerIter, v[0]
}

// peakKind names the loop peakLoop runs, for the provenance block.
func peakKind() string {
	if cpufeat.AVX2() {
		return "avx2-fma-f32"
	}
	return "scalar-f32"
}
