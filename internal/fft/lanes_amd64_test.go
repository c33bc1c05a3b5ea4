//go:build amd64

package fft

import "distfdk/internal/cpufeat"

// spellings returns the lane passes this host can run: the Go loops, and
// the YMM-pair and ZMM assembly where cpufeat finds AVX2 and AVX-512.
func spellings() []spelling {
	s := []spelling{{"go", &portable}}
	if cpufeat.AVX2() {
		s = append(s, spelling{"avx2", &avx2})
	}
	if cpufeat.AVX512() {
		s = append(s, spelling{"avx512", &avx512})
	}
	return s
}
