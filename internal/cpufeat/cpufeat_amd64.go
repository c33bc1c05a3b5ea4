//go:build amd64

package cpufeat

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

func init() {
	hasAVX2, hasAVX512 := features(probe())
	avx2.Store(hasAVX2)
	avx512.Store(hasAVX512)
}

// probe reads the words features decides on from this CPU.
func probe() cpuidWords {
	var w cpuidWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	if w.maxLeaf < 7 {
		return w
	}
	_, _, w.leaf1ECX, _ = cpuid(1, 0)
	_, w.leaf7EBX, _, _ = cpuid(7, 0)
	if w.leaf1ECX&cpuid1ECXOSXSAVE != 0 {
		w.xcr0, _ = xgetbv()
	}
	return w
}
