package storage

import "math"

func floatToBits(x float32) uint32 { return math.Float32bits(x) }
