package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The buffer arena: size-classed sync.Pools of []float32 scratch buffers
// used by the collectives' tree steps. A collective send borrows a buffer,
// fills it and transfers ownership through the channel; the receiving rank
// accumulates (or copies) out of it and returns it to the arena. Without
// the arena every tree step of Bcast/Reduce/Gather allocated and copied a
// fresh full-size buffer (`append([]float32(nil), buf...)`), which at
// slab scale means gigabytes of garbage per reduction.
//
// Class k holds buffers with 1<<k ≤ cap < 1<<(k+1); a get for n elements
// draws from the class of the rounded-up power of two, so any returned
// buffer of that class can satisfy it.
const maxPoolClass = 30

var (
	poolOff     atomic.Bool
	poolClasses [maxPoolClass + 1]sync.Pool
	poolGets    atomic.Int64
	poolPuts    atomic.Int64
	poolMisses  atomic.Int64
)

// PoolStats reports the arena's activity since process start (or the last
// bench section): Gets and Puts count borrow/return pairs, Misses counts
// Gets that had to allocate because the class was empty.
type PoolStats struct {
	Gets, Puts, Misses int64
}

// BufferPoolStats returns a snapshot of the arena counters.
func BufferPoolStats() PoolStats {
	return PoolStats{
		Gets:   poolGets.Load(),
		Puts:   poolPuts.Load(),
		Misses: poolMisses.Load(),
	}
}

// SetBufferPooling enables or disables the collective buffer arena and
// returns the previous setting. Disabling reverts the collectives to
// allocate-per-step behaviour. No production code calls it: it exists so
// the bit-identity and stress tests can hold the pooled collectives to the
// unpooled reference in one process.
func SetBufferPooling(enabled bool) bool {
	return !poolOff.Swap(!enabled)
}

// getScratch borrows a []float32 of length n from the arena (allocating
// one of the class capacity on miss). Contents are undefined; every
// caller overwrites the full length before use.
func getScratch(n int) []float32 {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest k with 1<<k >= n
	if poolOff.Load() || k > maxPoolClass {
		return make([]float32, n)
	}
	poolGets.Add(1)
	if v := poolClasses[k].Get(); v != nil {
		return v.([]float32)[:n]
	}
	poolMisses.Add(1)
	return make([]float32, n, 1<<k)
}

// putScratch returns a borrowed buffer to the arena. Only buffers whose
// ownership the caller holds exclusively may be returned; the collectives
// return exactly the scratch buffers their tree partners sent them, never
// user-visible buffers.
func putScratch(s []float32) {
	c := cap(s)
	if c == 0 || poolOff.Load() {
		return
	}
	k := bits.Len(uint(c)) - 1 // floor: every buffer in class k has cap ≥ 1<<k
	if k > maxPoolClass {
		return
	}
	poolPuts.Add(1)
	poolClasses[k].Put(s[:c])
}
