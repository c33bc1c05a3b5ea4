//go:build !amd64

package backproject

// The vector spelling is amd64-only: elsewhere accumulateSlab dispatches
// every launch to fusedTileGo.
func simdAvailable() bool { return false }

func fusedTileAVX2(*simdRowArgs) {
	panic("backproject: assembly kernel dispatched without simdAvailable")
}
