package main

import "time"

// The host's speed changes under the benchmark: for minutes at a time every
// rep of every workload, the fastest included, runs 15–25 % slower or
// faster, on one CPU as on two (README, Protocol). A timing is therefore
// divided by the time the calibration loop below took on the same CPU just
// before or after it, and multiplied by calibRefS. The loop does the kind of
// work the program does most, bilinear gathers from an image that fits the
// L2, because how much a busy neighbour slows a core depends on the
// instruction mix: add chains, an integer hash and a sort, tried the same
// way, tracked the reps a third as well or not at all.

// calibRefS is the calibration time of a quiet core of the machine the
// baseline was taken on. It fixes the unit: a normalised time is in seconds
// on such a core.
const calibRefS = 0.00148

const (
	calibImage  = 256 // image side; 256 KiB of float32
	calibOut    = 64  // output side
	calibPasses = 72
)

var (
	calibImg = func() []float32 {
		img := make([]float32, calibImage*calibImage)
		for i := range img {
			img[i] = float32(i%97) * 0.01
		}
		return img
	}()
	calibAcc = make([]float32, calibOut*calibOut)
)

// calibPass accumulates calibPasses rotated, bilinearly interpolated views
// of the image.
func calibPass() {
	const h = calibOut / 2
	for p := 0; p < calibPasses; p++ {
		c, s := 0.9+0.001*float32(p), float32(0.3)
		for y := 0; y < calibOut; y++ {
			for x := 0; x < calibOut; x++ {
				u := calibImage/2 + 3*(c*float32(x-h)-s*float32(y-h))
				v := calibImage/2 + 3*(s*float32(x-h)+c*float32(y-h))
				iu, iv := int(u), int(v)
				fu, fv := u-float32(iu), v-float32(iv)
				b := iv*calibImage + iu
				calibAcc[y*calibOut+x] += (1-fv)*((1-fu)*calibImg[b]+fu*calibImg[b+1]) +
					fv*((1-fu)*calibImg[b+calibImage]+fu*calibImg[b+calibImage+1])
			}
		}
	}
}

// calibrate returns the fastest of three calibration passes on the calling
// thread's CPU, in seconds.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		calibPass()
		best = min(best, time.Since(t0))
	}
	clear(calibAcc) // keep the sums finite over a long run
	return best.Seconds()
}
