package filter

import "distfdk/internal/fft"

// pack writes the len(vs) ≤ fft.Lanes rows of nu samples stored back to
// back in rows, row l weighted by the cosine row vs[l] of weights, into
// lanes 0, 1, … of the transform's lane-interleaved workspace, and zeros the
// other lanes, over the (nu+1)/2 live points: sample 2j of a row becomes the
// real and sample 2j+1 the imaginary part of point j, each the float32
// product src·w widened to float64; an odd row's last imaginary part is
// zero. The whole pairs go through the vector routine where the host has
// one, the rest (everything, elsewhere) through the loops below; the two
// compute a sample the same way.
func pack(zr, zi []float64, rows []float32, nu int, weights []float32, vs []int) {
	j0 := packPairs(zr, zi, rows, nu, weights, vs)
	for l, v := range vs {
		src, w := rows[l*nu:(l+1)*nu], weights[v*nu:(v+1)*nu]
		j, u := fft.Lanes*j0+l, 2*j0
		for ; u+1 < nu; u += 2 {
			zr[j], zi[j] = float64(src[u]*w[u]), float64(src[u+1]*w[u+1])
			j += fft.Lanes
		}
		if u < nu {
			zr[j], zi[j] = float64(src[u]*w[u]), 0
		}
	}
	for j := fft.Lanes*j0 + len(vs); j < fft.Lanes*((nu+1)/2); j += fft.Lanes {
		clear(zr[j : j+fft.Lanes-len(vs)])
		clear(zi[j : j+fft.Lanes-len(vs)])
	}
}

// unpack rounds the filtered points of lanes 0 … count−1 back to float32
// samples of the count rows stored back to back in rows, the inverse of
// pack's even/odd split.
func unpack(rows []float32, nu int, zr, zi []float64, count int) {
	j0 := unpackPairs(rows, nu, zr, zi, count)
	for l := 0; l < count; l++ {
		dst := rows[l*nu : (l+1)*nu]
		j, u := fft.Lanes*j0+l, 2*j0
		for ; u+1 < nu; u += 2 {
			dst[u], dst[u+1] = float32(zr[j]), float32(zi[j])
			j += fft.Lanes
		}
		if u < nu {
			dst[u] = float32(zr[j])
		}
	}
}
