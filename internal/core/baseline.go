package core

import (
	"fmt"
	"time"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
)

// BaselineOptions configures the batch-decomposition baseline that the
// paper compares against (the iFDK / Lu et al. scheme of Table 2): the
// input is split only along the projection-batch axis Np; every rank
// back-projects full-height projections into the full volume, the volume is
// reduced over all ranks, and out-of-core operation (ChunkCount > 1)
// re-uploads the rank's entire projection share for every volume chunk —
// the redundancy the paper's 2-D decomposition eliminates.
type BaselineOptions struct {
	Sys *geometry.System
	// Ranks is the world size; NP must be divisible by it.
	Ranks int
	// ChunkCount splits the volume into Z chunks processed serially.
	// 1 keeps the whole volume resident (RTK-style, bounded by device
	// memory); larger values trade memory for redundant transfers.
	ChunkCount int
	Source     projection.Source
	// DeviceMemBytes caps each rank's device memory (0 = unlimited).
	DeviceMemBytes int64
	// Output receives reduced chunks at rank 0 (required).
	Output SlabSink
}

// RunBatchBaseline executes the batch-only decomposition as a schedule of
// the rank program (engine.go). Every rank's projection window is its
// NP/Ranks share and its group is the whole world. Each volume chunk is one
// program over a one-batch schedule whose rows are the whole detector
// height, since the scheme has no Nv split. The chunks run as separate
// programs, as Lu et al. run a job per sub-volume: each fills a ring of its
// own, so the share crosses the link once per chunk. A rank's chunks share
// its device, whose ledger totals them. It returns the same report type as
// RunDistributed so experiments can compare traffic like-for-like.
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
	chunks := max(opts.ChunkCount, 1)
	if chunks > sys.NZ {
		return nil, fmt.Errorf("core: %d chunks exceed NZ=%d", chunks, sys.NZ)
	}
	sched := zSchedule(sys, 0, sys.NZ, ceilDiv(sys.NZ, chunks))

	report := &ClusterReport{
		Ledgers:    make([]device.Ledger, opts.Ranks),
		WorldStats: make([]mpi.Stats, opts.Ranks),
		GroupStats: make([]mpi.Stats, opts.Ranks),
	}
	start := time.Now()
	err := mpi.Run(opts.Ranks, func(world *mpi.Comm) error {
		rank := world.Rank()
		share := sys.NP / opts.Ranks
		dev := device.New(fmt.Sprintf("baseline%d", rank), opts.DeviceMemBytes, 1)
		sink := opts.Output
		if rank != 0 {
			sink = nil
		}
		for _, b := range sched {
			b.rows = geometry.RowRange{Lo: 0, Hi: sys.NV}
			prog := &program{
				ReconOptions: ReconOptions{Source: opts.Source, Device: dev, Sink: sink},
				sys:          sys, sched: []batch{b}, pLo: rank * share, pHi: (rank + 1) * share, group: world,
			}
			if err := prog.run(); err != nil {
				return fmt.Errorf("rank %d chunk %d: %w", rank, b.c, err)
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
