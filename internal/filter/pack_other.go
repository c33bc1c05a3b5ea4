//go:build !amd64

package filter

// The vector pack and unpack are amd64-only: elsewhere the Go loops take
// every sample.

func packPairs(zr, zi []float64, rows []float32, nu int, weights []float32, vs []int) int {
	return 0
}

func unpackPairs(rows []float32, nu int, zr, zi []float64, count int) int { return 0 }
