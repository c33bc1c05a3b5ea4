//go:build linux && amd64

package backproject

import (
	"syscall"
	"testing"
	"unsafe"
)

// The window loads read nine floats where a gather reads two, and must not
// read past the projection buffer to do it: the same trials as
// TestSIMDWindowLoadsMatchGathers, with every sample buffer ending where an
// unreadable page begins, so that one float too far is a fault and not a
// silent read.
func TestSIMDWindowLoadsStayInsideBuffer(t *testing.T) {
	page := syscall.Getpagesize()
	testSIMDWindowLoads(t, func(n int) []float32 {
		size := (n*4 + page - 1) / page * page
		mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a test's scratch mapping: nothing to do about a failure
		if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-n*4])), n)
	})
}
