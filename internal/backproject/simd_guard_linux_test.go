//go:build linux && amd64

package backproject

import (
	"syscall"
	"testing"
	"unsafe"
)

// The window loads read nine floats (17 in the 16-lane spelling) where a
// gather reads two, up to seven (15) of them past a row's right apron, and
// must not read past the store to do it: the same trials as
// TestSIMDWindowLoadsMatchGathers, through every width the host runs (their
// guarded groups reach the last column of the last row and, past it, the
// zero slot that ends the store), with an unreadable page directly behind
// the last float device.Layout declares readable, so that one float too far
// is a fault and not a silent read.
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
