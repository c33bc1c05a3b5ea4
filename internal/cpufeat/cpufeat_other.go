//go:build !amd64

package cpufeat

// Non-amd64 builds have no vector path; the atomics' zero values (false)
// are already correct, so there is nothing to probe.
