//go:build linux && amd64

package filter

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps size bytes that end where an unreadable page begins, so one
// element too far is a fault and not a silent access.
func guarded(t *testing.T, size int) unsafe.Pointer {
	page := syscall.Getpagesize()
	span := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a test's scratch mapping: nothing to do about a failure
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Pointer(&mem[span-size])
}

// The vector routines must stay inside the row and the workspace as
// TestSIMDWindowLoadsStayInsideBuffer makes the kernel stay inside the
// projection buffer: the row, the last row of cosine weights and both work
// slices each end at a PROT_NONE page.
func TestFilterRowStaysInsideItsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, nu := range transformWidths {
		f, err := NewFDK(widthConfig(nu, Cosine))
		if err != nil {
			t.Fatal(err)
		}
		last := f.nv - 1
		cosine := unsafe.Slice((*float32)(guarded(t, len(f.weights)*4)), len(f.weights))
		copy(cosine, f.weights)
		f.weights = cosine
		m := f.plan.WorkLen()
		work := func() []float64 { return unsafe.Slice((*float64)(guarded(t, m*8)), m) }
		s := &scratch{zr: work(), zi: work()}
		row := unsafe.Slice((*float32)(guarded(t, nu*4)), nu)
		copy(row, randomRow(rng, nu))
		want := filtered(t, f, row, last, nil)
		if err := f.FilterRow(row, last, s); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "guarded buffers", want, row)
	}
}
