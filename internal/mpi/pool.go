package mpi

import (
	"math/bits"
	"sync"
)

// The buffer arena: size-classed sync.Pools of []float32 scratch buffers
// used by the reduction tree's steps. A non-root rank borrows a buffer for
// its partial sum, accumulates its children's partials into it and
// transfers ownership to its tree parent on send; the parent accumulates
// out of it and returns it to the arena. Without the arena every tree step
// would allocate a fresh full-size buffer, which at slab scale means
// gigabytes of garbage per reduction.
//
// Class k holds buffers of capacity 1<<k + ScratchHeadroom; a get for n
// elements draws from the class of the rounded-up power of two, so any
// returned buffer of that class can satisfy it.
//
// The arena is also the socket transport's frame store: a received frame is
// read into a buffer of its payload's class and the payload becomes the
// message's Data. Each buffer the arena allocates therefore carries
// ScratchHeadroom elements past its class size, room for a frame's header
// and checksum beside a class-sized payload.
const (
	maxPoolClass    = 30
	ScratchHeadroom = 16
)

var (
	poolClasses [maxPoolClass + 1]sync.Pool // of *scratch
	// poolHolders recycles the empty holders, so that neither a get nor a
	// put allocates once the arena is warm (a slice stored in a sync.Pool
	// directly is boxed on every Put).
	poolHolders sync.Pool
)

type scratch struct{ s []float32 }

// GetScratch borrows a []float32 of length n from the arena (allocating
// one of the class capacity plus ScratchHeadroom on miss). Contents are
// undefined; every caller overwrites the full length before use.
func GetScratch(n int) []float32 {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest k with 1<<k >= n
	if k > maxPoolClass {
		return make([]float32, n, n+ScratchHeadroom)
	}
	if v := poolClasses[k].Get(); v != nil {
		h := v.(*scratch)
		s := h.s[:n]
		h.s = nil
		poolHolders.Put(h)
		return s
	}
	return make([]float32, n, 1<<k+ScratchHeadroom)
}

// PutScratch returns a borrowed buffer to the arena. Only buffers whose
// ownership the caller holds exclusively may be returned: the reductions
// return the buffers their tree children sent them, the socket transport
// a sent buffer once the peer acknowledged it. A slice the arena did not
// make (its capacity is not a class size plus ScratchHeadroom) is left to
// the garbage collector, so a caller's own slice never enters a class.
func PutScratch(s []float32) {
	c := cap(s) - ScratchHeadroom
	k := bits.Len(uint(c)) - 1
	if c <= 0 || c != 1<<k || k > maxPoolClass {
		return
	}
	h, _ := poolHolders.Get().(*scratch)
	if h == nil {
		h = new(scratch)
	}
	h.s = s[:c]
	poolClasses[k].Put(h)
}
