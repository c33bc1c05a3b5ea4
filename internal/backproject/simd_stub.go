//go:build !amd64

package backproject

// The vector kernel is amd64-only: elsewhere accumulateSlab dispatches
// every recurrence launch to the scalar path.
func simdAvailable() bool { return false }

// rcpNR stands in for the amd64 refined-reciprocal helper so the shared
// simd source compiles. It is unreachable through kernel dispatch
// (simdAvailable is false) and its plain division is NOT the simd
// contract's value — tests that assert contract arithmetic gate on
// simdAvailable.
func rcpNR(w float32) float32 { return 1 / w }

// simdRowArgs, initSpanArgs and launchSpan stand in for the assembly
// kernel's launch interface, which accumulateSlab never dispatches to on
// this architecture.
type simdRowArgs struct{}

func (a *projAccess) initSpanArgs(*simdRowArgs, int, float32, float32, float32) {}

func launchSpan(*simdRowArgs, []float32, int, int, int, int, int, float32, float32, []float32) {
	panic("backproject: simd kernel dispatched without simdAvailable")
}
