//go:build !amd64

package fft

// The vector routines are amd64-only: elsewhere the Go passes run.
func hostPasses() *passes { return &portable }
