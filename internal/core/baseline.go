package core

import (
	"fmt"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// BaselineOptions configures the batch-decomposition baseline that the
// paper compares against (the iFDK / Lu et al. scheme of Table 2): the
// input is split only along the projection-batch axis Np; every rank
// back-projects full-height projections into the full volume, the volume is
// reduced in one global collective over all ranks, and out-of-core
// operation (ChunkCount > 1) re-uploads the rank's entire projection share
// for every volume chunk — the redundancy the paper's 2-D decomposition
// eliminates.
type BaselineOptions struct {
	Sys *geometry.System
	// Ranks is the world size; NP must be divisible by it.
	Ranks int
	// ChunkCount splits the volume into Z chunks processed serially.
	// 1 keeps the whole volume resident (RTK-style, bounded by device
	// memory); larger values trade memory for redundant transfers.
	ChunkCount int
	Source     projection.Source
	Window     filter.Window
	// DeviceMemBytes caps each rank's device memory (0 = unlimited).
	DeviceMemBytes int64
	WorkersPerRank int
	// Output receives reduced chunks at rank 0 (required).
	Output SlabSink
}

// RunBatchBaseline executes the batch-only decomposition. It returns the
// same report type as RunDistributed so experiments can compare traffic
// like-for-like.
func RunBatchBaseline(opts BaselineOptions) (*ClusterReport, error) {
	sys := opts.Sys
	if sys == nil || opts.Source == nil || opts.Output == nil {
		return nil, fmt.Errorf("core: Sys, Source and Output are required")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opts.Ranks <= 0 || sys.NP%opts.Ranks != 0 {
		return nil, fmt.Errorf("core: NP=%d not divisible by %d ranks", sys.NP, opts.Ranks)
	}
	chunks := opts.ChunkCount
	if chunks <= 0 {
		chunks = 1
	}
	if chunks > sys.NZ {
		return nil, fmt.Errorf("core: %d chunks exceed NZ=%d", chunks, sys.NZ)
	}
	workers := opts.WorkersPerRank
	if workers <= 0 {
		workers = 1
	}
	chunkNZ := ceilDiv(sys.NZ, chunks)

	report := &ClusterReport{
		Ledgers:    make([]device.Ledger, opts.Ranks),
		WorldStats: make([]mpi.Stats, opts.Ranks),
		GroupStats: make([]mpi.Stats, opts.Ranks),
	}
	start := time.Now()
	err := mpi.Run(opts.Ranks, func(world *mpi.Comm) error {
		rank := world.Rank()
		share := sys.NP / opts.Ranks
		pLo, pHi := rank*share, (rank+1)*share
		mats := KernelMatrices(sys, pLo, pHi)
		fdk, err := NewFilter(sys, opts.Window)
		if err != nil {
			return err
		}
		dev := device.New(fmt.Sprintf("baseline%d", rank), opts.DeviceMemBytes, workers)

		// The baseline loads and filters its full-height share once on
		// the host (no Nv split is possible without the paper's
		// decomposition).
		st, err := opts.Source.LoadRows(geometry.RowRange{Lo: 0, Hi: sys.NV}, pLo, pHi)
		if err != nil {
			return fmt.Errorf("rank %d load: %w", rank, err)
		}
		parker, err := NewParker(sys)
		if err != nil {
			return err
		}
		if err := applyParker(parker, st); err != nil {
			return fmt.Errorf("rank %d parker: %w", rank, err)
		}
		vOf := func(i int) int { return st.V0 + i/st.NP }
		if err := fdk.FilterRows(st.Data, st.NV*st.NP, vOf, 1); err != nil {
			return fmt.Errorf("rank %d filter: %w", rank, err)
		}

		stackBytes := st.Bytes()
		for c := 0; c < chunks; c++ {
			z0 := c * chunkNZ
			nz := min(chunkNZ, sys.NZ-z0)
			if nz <= 0 {
				continue
			}
			chunkBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(nz)
			// Device must hold the full projection share AND the
			// chunk — the O(Nu×Nv) input lower bound of Table 2.
			if err := dev.Alloc(stackBytes + chunkBytes); err != nil {
				return fmt.Errorf("rank %d chunk %d: %w", rank, c, err)
			}
			// The share is re-uploaded for every chunk: without the
			// Nv split there is no differential update to exploit.
			dev.RecordH2D(stackBytes, 1)

			slab, err := volume.NewSlab(sys.NX, sys.NY, nz, z0)
			if err != nil {
				return err
			}
			if err := backproject.Batch(dev, st, mats, slab); err != nil {
				return fmt.Errorf("rank %d chunk %d: %w", rank, c, err)
			}
			dev.RecordD2H(slab.Bytes())
			dev.Free(stackBytes + chunkBytes)

			// One global collective across all ranks, one message per
			// tree edge.
			if err := world.ReduceChunked(0, slab.Data, len(slab.Data)); err != nil {
				return fmt.Errorf("rank %d chunk %d reduce: %w", rank, c, err)
			}
			if rank == 0 {
				if err := opts.Output.WriteSlab(slab); err != nil {
					return err
				}
			}
		}
		report.Ledgers[rank] = dev.Snapshot()
		report.WorldStats[rank] = world.Stats()
		report.GroupStats[rank] = world.Stats()
		return nil
	})
	report.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	return report, nil
}
