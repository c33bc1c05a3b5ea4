//go:build linux && amd64

package backproject

import (
	"math"
	"math/rand"
	"slices"
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
	testSIMDWindowLoads(t, func(n int) []float32 { return guardedFloats(t, n) })
}

// guardedFloats returns n floats whose last one lies directly in front of
// an unreadable page, so that one float too far is a fault and not a
// silent read or write.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
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
}

// The output side of the same harness: a block launch loads a group's
// rows into its accumulators and stores them back, and the last group of
// a row whose width is no multiple of 16 (nor of 8) reaches past the row.
// The tile here is the last rows of a slab, the last float of its last row
// directly in front of an unreadable page, and the block's spans run to
// the row's last column, fast and guarded; every spelling the host runs
// must fault on nothing and write what the same launch writes in ordinary
// memory.
func TestBlockStoresStayInsideVolume(t *testing.T) {
	logSkippedSpellings(t)
	rng := rand.New(rand.NewSource(89))
	f := newBlockFixture(t, rng)
	for _, nx := range []int{33, 100} {
		for _, h := range []int{1, 7, 16} {
			sp := [][4]int{{0, nx, 0, nx}, {nx - 20, nx, nx - 20, nx - 20}, {5, nx, 9, nx - 3}, {nx - 1, nx, nx - 1, nx - 1}}
			init := sentinelRows(rng, nx, nx, h, sp)
			for name, sub := range f.a.spellings() {
				want := slices.Clone(init)
				f.launch(sub, want, nx, nx, h, sp, true)
				got := guardedFloats(t, len(init))
				copy(got, init)
				f.launch(sub, got, nx, nx, h, sp, true)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s, %d slices of %d columns: slice %d column %d: %g next to the unreadable page, %g elsewhere",
							name, h, nx, i/nx, i%nx, got[i], want[i])
					}
				}
			}
		}
	}
}
