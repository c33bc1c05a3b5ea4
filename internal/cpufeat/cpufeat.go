// Package cpufeat probes the CPU features the assembly kernels need at
// runtime, so a binary built with the AVX2 back-projection path dispatches
// to it where it can run and to the portable Go path on hardware or
// operating systems that lack it. The probe runs once at init; the result
// is immutable afterwards except through the test override.
//
// Only the features a kernel actually dispatches on are exposed —
// currently usable AVX2, which requires the CPUID feature bit *and* the
// OS to have enabled XMM/YMM state saving (OSXSAVE + XCR0), exactly the
// check the Go runtime performs for its own vector routines.
package cpufeat

import "sync/atomic"

// avx2 holds the probed (or test-overridden) result. An atomic so the
// test override is race-free against kernels reading the flag from worker
// goroutines.
var avx2 atomic.Bool

// AVX2 reports whether 256-bit AVX2 integer/float vectors (including
// gathers and masked moves) are usable on this host: the instruction set
// is present and the OS saves the YMM state. Always false on non-amd64
// builds.
func AVX2() bool { return avx2.Load() }

// SetAVX2ForTest overrides the probe and returns a restore func. Tests use
// it to force the portable path on AVX2 hardware (or, on machines without
// AVX2, to exercise error paths — the kernels themselves must never be
// forced on, only off, since the override does not make the instructions
// executable).
func SetAVX2ForTest(v bool) (restore func()) {
	prev := avx2.Swap(v)
	return func() { avx2.Store(prev) }
}
