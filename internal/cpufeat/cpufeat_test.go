package cpufeat

import (
	"runtime"
	"testing"
)

// The override must force the flag and the restore func must put the
// probed value back — the contract the kernel dispatch tests rely on.
func TestSetAVX2ForTestRestores(t *testing.T) {
	probed := AVX2()
	restore := SetAVX2ForTest(false)
	if AVX2() {
		t.Fatal("override to false did not take")
	}
	restore()
	if AVX2() != probed {
		t.Fatalf("restore gave %v, probed value was %v", AVX2(), probed)
	}
	restore = SetAVX2ForTest(true)
	if !AVX2() {
		t.Fatal("override to true did not take")
	}
	restore()
	if AVX2() != probed {
		t.Fatalf("restore gave %v, probed value was %v", AVX2(), probed)
	}
}

// On non-amd64 builds the probe must stay false — there is no AVX2 path
// to dispatch to.
func TestNonAMD64IsFalse(t *testing.T) {
	if runtime.GOARCH != "amd64" && AVX2() {
		t.Fatalf("AVX2() = true on %s", runtime.GOARCH)
	}
}
