package core

import (
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/projection"
)

// fuseUpload is the fused filter→back-project handoff: instead of weighting
// and ramp-filtering the loaded stack in place and then copying it row by
// row into the projection ring, it admits st's rows to the ring by filtering
// each raw (row, projection) straight into its slot (ProjRing.FillRows +
// FDK.FilterRowInto, Parker weights — nil for a full scan — applied on the
// way), eliminating the intermediate host-stack write and the upload memcpy.
// The fused arithmetic is bit-identical to the unfused sequence —
// FilterRowInto rounds the redundancy product to float32 before the cosine
// weight exactly as ApplyRow-then-FilterRow does — so it never changes the
// volume, only the traffic. The fills run on the ring device's WorkerCount
// goroutines, each row on a workspace from the filter's pool. st must hold
// *unfiltered* data; its projection window must match the ring's.
//
// The rank program fuses under the serial executor, where the filter never
// overlaps anything. The pipelined executor stays unfused: there the filter
// stage overlaps the previous batch's back-projection, and all ring mutation
// belongs to the back-project stage — fusing would serialise the filter work
// behind the kernel (and filtering from any other stage would race the
// kernel's ring reads).
func fuseUpload(ring *device.ProjRing, st *projection.Stack, fdk *filter.FDK, pk *filter.Parker) error {
	return ring.FillRows(st.Rows(), func(v, p int, dst []float32) error {
		row, err := st.Row(v, p)
		if err != nil {
			return err
		}
		var pw []float32
		if pk != nil {
			if pw, err = pk.RowWeights(st.P0 + p); err != nil {
				return err
			}
		}
		return fdk.FilterRowInto(dst, row, v, pw, nil)
	})
}
