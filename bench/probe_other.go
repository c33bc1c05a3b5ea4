//go:build !amd64

package main

func peakLoop(iters int64) (int64, float32) { return scalarLoop(iters) }

func peakKind() string { return "scalar-f32" }
