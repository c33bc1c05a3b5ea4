package filter

// pack writes the weighted row into the transform's workspace and returns
// the number of complex points it fills: sample 2j becomes the real and
// sample 2j+1 the imaginary part of point j, each the float32 product src·w
// widened to float64; an odd row's last imaginary part is zero. The whole
// groups of eight samples go through the vector routine where the host has
// one, the rest (everything, elsewhere) through the loop below; the two
// compute a sample the same way.
func pack(zr, zi []float64, src, w []float32) int {
	nu := len(src)
	u := packGroups(zr, zi, src, w)
	for ; u+1 < nu; u += 2 {
		zr[u/2], zi[u/2] = float64(src[u]*w[u]), float64(src[u+1]*w[u+1])
	}
	if u < nu {
		zr[u/2], zi[u/2] = float64(src[u]*w[u]), 0
	}
	return (nu + 1) / 2
}

// unpack rounds the filtered points back to float32 samples of dst, the
// inverse of pack's even/odd split.
func unpack(dst []float32, zr, zi []float64) {
	nu := len(dst)
	u := unpackGroups(dst, zr, zi)
	for ; u+1 < nu; u += 2 {
		dst[u] = float32(zr[u/2])
		dst[u+1] = float32(zi[u/2])
	}
	if u < nu {
		dst[u] = float32(zr[u/2])
	}
}
