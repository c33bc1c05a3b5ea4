//go:build !race

package alloctest

// Race reports a race-detector build (see race.go).
const Race = false
