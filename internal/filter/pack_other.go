//go:build !amd64

package filter

// The vector pack and unpack are amd64-only: elsewhere the Go loops take the
// whole row.

func packGroups(zr, zi []float64, src, w []float32) int { return 0 }

func unpackGroups(dst []float32, zr, zi []float64) int { return 0 }
