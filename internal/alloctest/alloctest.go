// Package alloctest is test support: the allocation measurement with which
// the fuzz targets and the frame-reader test hold a parser of untrusted
// bytes to memory in proportion to its input.
package alloctest

import "runtime"

// AllocatedBy reports the bytes fn allocates (its own goroutine's, plus
// whatever the idle runtime adds: a few hundred bytes).
func AllocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
