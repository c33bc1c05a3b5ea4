//go:build race

package alloctest

// Race reports a race-detector build, where sync.Pool drops a share of
// what is put in it, so no allocation count of a pooled path is exact.
const Race = true
