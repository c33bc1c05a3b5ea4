//go:build amd64

package filter

import "distfdk/internal/cpufeat"

// packGroups packs the row's whole groups of eight samples with AVX2 where
// the host has it, dispatched as the back-projection kernel is, and returns
// how many samples that was (0 without AVX2).
func packGroups(zr, zi []float64, src, w []float32) int {
	n := len(src) &^ 7
	if n == 0 || !cpufeat.AVX2() {
		return 0
	}
	packAVX2(&zr[0], &zi[0], &src[0], &w[0], n)
	return n
}

// unpackGroups is packGroups for the way back.
func unpackGroups(dst []float32, zr, zi []float64) int {
	n := len(dst) &^ 7
	if n == 0 || !cpufeat.AVX2() {
		return 0
	}
	unpackAVX2(&dst[0], &zr[0], &zi[0], n)
	return n
}

// packAVX2 packs n samples, n a positive multiple of 8, into n/2 points.
// Implemented in pack_amd64.s; requires AVX2.
//
//go:noescape
func packAVX2(zr, zi *float64, src, w *float32, n int)

// unpackAVX2 rounds n/2 points into n samples, n a positive multiple of 8.
// Implemented in pack_amd64.s; requires AVX2.
//
//go:noescape
func unpackAVX2(dst *float32, zr, zi *float64, n int)
