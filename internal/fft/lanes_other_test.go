//go:build !amd64

package fft

// spellings returns the lane passes this host can run: the Go loops.
func spellings() []spelling { return []spelling{{"go", &portable}} }
