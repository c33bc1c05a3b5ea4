// Package cpufeat probes the CPU features the assembly kernels need at
// runtime, so a binary built with the vector back-projection paths
// dispatches to the widest one the host can run and to the portable Go path
// on hardware or operating systems that lack them. The probe runs once at
// init; the result is immutable afterwards except through the test
// overrides.
//
// Only the features a kernel actually dispatches on are exposed: usable
// AVX2 and usable AVX-512 (F, VL, DQ and BW). Each requires the CPUID
// feature bits *and* the OS to save the register state they use (OSXSAVE +
// XCR0), exactly the check the Go runtime performs for its own vector
// routines. The decision is a pure function of the CPUID and XCR0 words,
// features, so that it can be tested without the hardware.
package cpufeat

import "sync/atomic"

// avx2 and avx512 hold the probed (or test-overridden) results. Atomics so
// the test overrides are race-free against kernels reading the flags from
// worker goroutines.
var avx2, avx512 atomic.Bool

// AVX2 reports whether 256-bit AVX2 integer/float vectors (including
// gathers and masked moves) are usable on this host: the instruction set
// is present and the OS saves the YMM state. Always false on non-amd64
// builds.
func AVX2() bool { return avx2.Load() }

// AVX512 reports whether 512-bit AVX-512 vectors with opmask registers are
// usable on this host: the F, VL, DQ and BW instruction sets are present
// and the OS saves the opmask and ZMM state. It implies AVX2, so masking
// AVX2 off masks it too. Always false on non-amd64 builds.
func AVX512() bool { return avx512.Load() && avx2.Load() }

// SetAVX2ForTest overrides the AVX2 probe and returns a restore func. Tests
// use it to force the portable path on AVX2 hardware (or, on machines
// without AVX2, to exercise error paths — the kernels themselves must never
// be forced on, only off, since the override does not make the instructions
// executable). Forcing it off masks AVX-512 as well.
func SetAVX2ForTest(v bool) (restore func()) {
	prev := avx2.Swap(v)
	return func() { avx2.Store(prev) }
}

// SetAVX512ForTest overrides the AVX-512 probe and returns a restore func:
// forced off, the kernels dispatch as on an AVX2-only host. Like
// SetAVX2ForTest it may only mask a feature off.
func SetAVX512ForTest(v bool) (restore func()) {
	prev := avx512.Swap(v)
	return func() { avx512.Store(prev) }
}

// cpuidWords are the words of the CPUID leaves and of XCR0 that decide
// the features. xcr0 is read only when leaf1ECX reports OSXSAVE (XGETBV
// faults otherwise) and is zero when it is not.
type cpuidWords struct {
	maxLeaf  uint32 // CPUID.0:EAX, the highest standard leaf
	leaf1ECX uint32 // CPUID.1:ECX
	leaf7EBX uint32 // CPUID.7.0:EBX
	xcr0     uint32 // XCR0, low word
}

const (
	cpuid1ECXOSXSAVE = 1 << 27
	cpuid1ECXAVX     = 1 << 28
	cpuid7EBXAVX2    = 1 << 5
	cpuid7EBXAVX512F = 1 << 16
	cpuid7EBXAVX512D = 1 << 17 // DQ
	cpuid7EBXAVX512B = 1 << 30 // BW
	cpuid7EBXAVX512V = 1 << 31 // VL
	xcr0XMM          = 1 << 1
	xcr0YMM          = 1 << 2
	xcr0Opmask       = 1 << 5
	xcr0ZMMHi256     = 1 << 6 // the upper halves of ZMM0–15
	xcr0Hi16ZMM      = 1 << 7 // ZMM16–31
)

// features is the usability check: CPUID.1 must report OSXSAVE (the OS
// exposes XGETBV) and AVX, XCR0 must show the OS saving both XMM and YMM
// state on context switch, and CPUID.7.0 must report the AVX2 instruction
// set; AVX-512 additionally needs F, VL, DQ and BW and XCR0's opmask and
// both ZMM components. Any missing piece means the kernels of that width
// would fault (SIGILL or corrupted vector state), so all must hold.
func features(w cpuidWords) (hasAVX2, hasAVX512 bool) {
	if w.maxLeaf < 7 {
		return false, false
	}
	const (
		osAVX     = cpuid1ECXOSXSAVE | cpuid1ECXAVX
		ymmState  = xcr0XMM | xcr0YMM
		zmmState  = ymmState | xcr0Opmask | xcr0ZMMHi256 | xcr0Hi16ZMM
		avx512Set = cpuid7EBXAVX512F | cpuid7EBXAVX512D | cpuid7EBXAVX512B | cpuid7EBXAVX512V
	)
	if w.leaf1ECX&osAVX != osAVX || w.xcr0&ymmState != ymmState || w.leaf7EBX&cpuid7EBXAVX2 == 0 {
		return false, false
	}
	return true, w.leaf7EBX&avx512Set == avx512Set && w.xcr0&zmmState == zmmState
}
