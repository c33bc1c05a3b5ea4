//go:build !amd64

package backproject

import "distfdk/internal/device"

// The vector spellings are amd64-only: elsewhere accumulateSlab dispatches
// every launch to fusedTileGo and every block's spans to rowRec.
func hostArithmetic() device.Arithmetic { return device.ArithmeticScalar }

func blockSpans512(*tileArgs, *blockLanes, *float32, float32, *kernelCounters) {
	panic("backproject: AVX-512 span solve dispatched on a host without it")
}

func fusedTileAVX2(*tileArgs) {
	panic("backproject: AVX2 kernel dispatched on a host without it")
}

func fusedTile512(*tileArgs) {
	panic("backproject: AVX-512 kernel dispatched on a host without it")
}
