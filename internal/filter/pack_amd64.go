//go:build amd64

package filter

import (
	"distfdk/internal/cpufeat"
	"distfdk/internal/fft"
)

// packPairs packs every lane's whole pairs of samples with AVX-512 where
// the host has it, dispatched as the transform is, and returns how many
// points that was (0 without AVX-512): lane l gathers row l's pairs and
// their weights, lanes past the last row are zero.
func packPairs(zr, zi []float64, rows []float32, nu int, weights []float32, vs []int) int {
	pairs := nu / 2
	if pairs == 0 || !cpufeat.AVX512() {
		return 0
	}
	var off, woff [fft.Lanes]int64
	for l, v := range vs {
		off[l], woff[l] = int64(4*l*nu), int64(4*v*nu)
	}
	pack512(&zr[0], &zi[0], &rows[0], &weights[0], &off, &woff, len(vs), pairs)
	return pairs
}

// unpackPairs is packPairs for the way back: it scatters the whole pairs of
// lanes 0 … count−1 into their rows.
func unpackPairs(rows []float32, nu int, zr, zi []float64, count int) int {
	pairs := nu / 2
	if pairs == 0 || !cpufeat.AVX512() {
		return 0
	}
	var off [fft.Lanes]int64
	for l := range count {
		off[l] = int64(4 * l * nu)
	}
	unpack512(&rows[0], &zr[0], &zi[0], &off, count, pairs)
	return pairs
}

// pack512 packs pairs points of rows lanes (1 ≤ rows ≤ 8) from src + off[l]
// weighted by w + woff[l] (byte offsets), zeroing lanes rows … 7.
// Implemented in pack_amd64.s; requires AVX-512.
//
//go:noescape
func pack512(zr, zi *float64, src, w *float32, off, woff *[fft.Lanes]int64, rows, pairs int)

// unpack512 rounds pairs points of lanes 0 … rows−1 into dst + off[l].
// Implemented in pack_amd64.s; requires AVX-512.
//
//go:noescape
func unpack512(dst *float32, zr, zi *float64, off *[fft.Lanes]int64, rows, pairs int)
