package cpufeat

import (
	"runtime"
	"testing"
)

// The overrides must force the flags and the restore funcs must put the
// probed values back — the contract the kernel dispatch tests rely on —
// and masking AVX2 off must mask AVX-512 with it, so that every "AVX2
// masked off" test still means the Go spelling.
func TestSetAVX2ForTestRestores(t *testing.T) {
	probed2, probed512 := AVX2(), AVX512()
	restore := SetAVX2ForTest(false)
	if AVX2() || AVX512() {
		t.Fatalf("AVX2 masked off: AVX2 %v, AVX-512 %v", AVX2(), AVX512())
	}
	restore()
	if AVX2() != probed2 || AVX512() != probed512 {
		t.Fatalf("restore gave AVX2 %v, AVX-512 %v; probed %v, %v", AVX2(), AVX512(), probed2, probed512)
	}
	restore = SetAVX512ForTest(false)
	if AVX512() || AVX2() != probed2 {
		t.Fatalf("AVX-512 masked off: AVX2 %v (probed %v), AVX-512 %v", AVX2(), probed2, AVX512())
	}
	restore()
	if AVX512() != probed512 {
		t.Fatalf("restore gave AVX-512 %v, probed %v", AVX512(), probed512)
	}
	restore = SetAVX2ForTest(true)
	if !AVX2() {
		t.Fatal("override to true did not take")
	}
	restore()
	if AVX2() != probed2 {
		t.Fatalf("restore gave %v, probed value was %v", AVX2(), probed2)
	}
}

// features decides from the CPUID and XCR0 words alone; each row drops one
// piece of what a width needs from a host that has everything.
func TestFeatures(t *testing.T) {
	const (
		leaf1   = cpuid1ECXOSXSAVE | cpuid1ECXAVX
		avx512  = cpuid7EBXAVX512F | cpuid7EBXAVX512D | cpuid7EBXAVX512B | cpuid7EBXAVX512V
		leaf7   = cpuid7EBXAVX2 | avx512
		ymmOnly = xcr0XMM | xcr0YMM
		xcr0    = ymmOnly | xcr0Opmask | xcr0ZMMHi256 | xcr0Hi16ZMM
	)
	full := cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: leaf7, xcr0: xcr0}
	with := func(f func(w *cpuidWords)) cpuidWords {
		w := full
		f(&w)
		return w
	}
	for _, c := range []struct {
		name            string
		words           cpuidWords
		avx2, avx512Set bool
	}{
		{"everything", full, true, true},
		{"leaf 7 absent", with(func(w *cpuidWords) { w.maxLeaf = 6 }), false, false},
		{"no OSXSAVE", with(func(w *cpuidWords) { w.leaf1ECX &^= cpuid1ECXOSXSAVE; w.xcr0 = 0 }), false, false},
		{"no AVX", with(func(w *cpuidWords) { w.leaf1ECX &^= cpuid1ECXAVX }), false, false},
		{"OS does not save YMM", with(func(w *cpuidWords) { w.xcr0 &^= xcr0YMM }), false, false},
		{"AVX2 absent", with(func(w *cpuidWords) { w.leaf7EBX &^= cpuid7EBXAVX2 }), false, false},
		{"AVX2 only", with(func(w *cpuidWords) { w.leaf7EBX, w.xcr0 = cpuid7EBXAVX2, ymmOnly }), true, false},
		{"AVX-512F reported but XCR0 lacks opmask state", with(func(w *cpuidWords) { w.xcr0 &^= xcr0Opmask }), true, false},
		{"AVX-512F reported but XCR0 lacks the upper ZMM halves", with(func(w *cpuidWords) { w.xcr0 &^= xcr0ZMMHi256 }), true, false},
		{"AVX-512F reported but XCR0 lacks ZMM16–31", with(func(w *cpuidWords) { w.xcr0 &^= xcr0Hi16ZMM }), true, false},
		{"AVX-512F reported but XCR0 saves no AVX-512 state", with(func(w *cpuidWords) { w.xcr0 = ymmOnly }), true, false},
		{"no AVX-512F", with(func(w *cpuidWords) { w.leaf7EBX &^= cpuid7EBXAVX512F }), true, false},
		{"no AVX-512VL", with(func(w *cpuidWords) { w.leaf7EBX &^= cpuid7EBXAVX512V }), true, false},
		{"no AVX-512DQ", with(func(w *cpuidWords) { w.leaf7EBX &^= cpuid7EBXAVX512D }), true, false},
		{"no AVX-512BW", with(func(w *cpuidWords) { w.leaf7EBX &^= cpuid7EBXAVX512B }), true, false},
	} {
		if a2, a512 := features(c.words); a2 != c.avx2 || a512 != c.avx512Set {
			t.Errorf("%s: features = AVX2 %v, AVX-512 %v; want %v, %v", c.name, a2, a512, c.avx2, c.avx512Set)
		}
	}
}

// On non-amd64 builds the probes must stay false — there is no vector path
// to dispatch to.
func TestNonAMD64IsFalse(t *testing.T) {
	if runtime.GOARCH != "amd64" && (AVX2() || AVX512()) {
		t.Fatalf("AVX2() = %v, AVX512() = %v on %s", AVX2(), AVX512(), runtime.GOARCH)
	}
}
