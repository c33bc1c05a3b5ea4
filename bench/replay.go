package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/experiments"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/volume"
)

// netDeadline is the collective deadline fdkrecon gives a socket world.
const netDeadline = 30 * time.Second

// The structural spans of a replay; every other span is a call into a
// layer. What the structural spans do not delegate is the time no layer
// explains.
const (
	spanReplay = "replay"
	spanWorld  = "mpi.world"
	spanRank   = "rank"
)

// replayed is what one traced replay leaves behind.
type replayed struct {
	spans       []span
	sha         string
	ledger      device.Ledger // summed over ranks
	reduceBytes int64         // bytes sent on the group communicators
}

// rankWork walks rank (g, r)'s share of the plan's batch schedule the way
// both drivers do, but strictly sequentially and unfused, with one span
// around each call into a layer's public function. finish receives every
// back-projected slab with its batch index (reduce and store). The unfused
// sequence is bit-identical to the fused one the distributed driver takes,
// and a sequential walk to the pipelined one, so the volume must come out
// byte-identical to the CLI's.
func rankWork(tr *tracer, parent, rank int, plan *core.Plan, g, r int, src projection.Source, workers int,
	finish func(c int, slab *volume.Volume) error) (device.Ledger, error) {
	sys := plan.Sys
	pLo, pHi := plan.ProjWindow(r)
	var (
		fdk  *filter.FDK
		mats []geometry.Mat34x4
		dev  *device.Device
		ring *device.ProjRing
	)
	err := tr.call("core.setup", parent, rank, 0, "", func() error {
		parker, err := core.NewParker(sys)
		if err != nil {
			return err
		}
		if parker != nil {
			return errors.New("replay: short-scan geometries are not replayed")
		}
		win, err := filter.ParseWindow("ram-lak")
		if err != nil {
			return err
		}
		if fdk, err = core.NewFilter(sys, win); err != nil {
			return err
		}
		mats = core.KernelMatrices(sys, pLo, pHi)
		dev = device.New(fmt.Sprintf("replay%d", rank), 0, workers)
		if ring, err = device.NewProjRing(dev, sys.NU, pHi-pLo, plan.RingDepth(g)); err != nil {
			return err
		}
		return dev.Alloc(plan.SlabBytes())
	})
	if err != nil {
		return device.Ledger{}, err
	}
	defer ring.Close()
	defer dev.Free(plan.SlabBytes())

	prev := geometry.RowRange{}
	for c := 0; c < plan.BatchCount; c++ {
		z0, nz := plan.SlabZ(g, c)
		if nz == 0 {
			continue
		}
		rows := plan.SlabRows(g, c)
		diff := geometry.DifferentialRows(prev, rows)
		if !prev.IsEmpty() && rows.Lo >= prev.Hi {
			ring.Reset()
		} else {
			ring.Release(rows.Lo)
		}
		if !diff.IsEmpty() {
			var st *projection.Stack
			nrows := int64(diff.Len()) * int64(pHi-pLo)
			nbytes := nrows * int64(sys.NU) * 4
			err := tr.call("storage.LoadRows", parent, rank, nbytes, "bytes", func() (err error) {
				st, err = src.LoadRows(diff, pLo, pHi)
				return err
			})
			if err != nil {
				return device.Ledger{}, err
			}
			err = tr.call("filter.FilterRows", parent, rank, nrows, "rows", func() error {
				return fdk.FilterRows(st.Data, st.NV*st.NP, func(i int) int { return st.V0 + i/st.NP }, workers)
			})
			if err != nil {
				return device.Ledger{}, err
			}
			err = tr.call("device.LoadRows", parent, rank, nbytes, "bytes", func() error {
				return ring.LoadRows(st, st.Rows())
			})
			if err != nil {
				return device.Ledger{}, err
			}
		}
		prev = rows

		slab, err := volume.NewSlab(sys.NX, sys.NY, nz, z0)
		if err != nil {
			return device.Ledger{}, err
		}
		updates := int64(sys.NX) * int64(sys.NY) * int64(nz) * int64(pHi-pLo)
		err = tr.call("backproject.StreamingKernel", parent, rank, updates, "updates", func() error {
			return backproject.StreamingKernel(dev, ring, mats, slab, rows, backproject.KernelRecurrence)
		})
		if err != nil {
			return device.Ledger{}, err
		}
		dev.RecordD2H(slab.Bytes())
		if err := finish(c, slab); err != nil {
			return device.Ledger{}, err
		}
	}
	return dev.Snapshot(), nil
}

// addLedger sums the counters the metrics use.
func addLedger(a *device.Ledger, b device.Ledger) {
	a.H2DBytes += b.H2DBytes
	a.VoxelUpdates += b.VoxelUpdates
	a.InteriorSamples += b.InteriorSamples
	a.BorderSamples += b.BorderSamples
	a.SkippedSamples += b.SkippedSamples
}

// replay reproduces the workload from launch to durable volume in this
// process, writing the volume to outPath.
func (r *wlRun) replay(outPath, journalPath string) (*replayed, error) {
	w := r.w
	tr := newTracer(w.Name)
	res := &replayed{}
	root := tr.begin(spanReplay, -1, -1)

	// What the CLI does at launch, including the forward projection it
	// discards when -in is given.
	var sc *experiments.Scenario
	err := tr.call("experiments.BuildScenario", root, -1, 0, "", func() (err error) {
		sc, err = experiments.BuildScenario(benchDataset, w.Div, w.N, runtime.GOMAXPROCS(0))
		return err
	})
	if err != nil {
		return nil, err
	}
	var src *storage.FileSource
	err = tr.call("storage.OpenStack", root, -1, 0, "", func() (err error) {
		src, err = storage.OpenStack(r.f.in)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var plan *core.Plan
	err = tr.call("core.setup", root, -1, 0, "", func() (err error) {
		plan, err = core.NewPlan(sc.Sys, 1, w.Ranks, core.DefaultBatchCount)
		return err
	})
	if err != nil {
		return nil, err
	}
	sys := plan.Sys

	if w.Ranks == 1 {
		var sink *core.VolumeSink
		err = tr.call("core.setup", root, -1, 0, "", func() (err error) {
			sink, err = core.NewVolumeSink(sys)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.ledger, err = rankWork(tr, root, -1, plan, 0, 0, src, runtime.GOMAXPROCS(0), func(_ int, slab *volume.Volume) error {
			return tr.call("core.WriteSlab", root, -1, slab.Bytes(), "bytes", func() error { return sink.WriteSlab(slab) })
		})
		if err != nil {
			return nil, err
		}
		err = tr.call("volume.SaveRaw", root, -1, volumeFileBytes(sys), "bytes", func() error { return sink.V.SaveRaw(outPath) })
		if err != nil {
			return nil, err
		}
	} else {
		var sw *storage.SlabWriter
		var journal *storage.Journal
		err = tr.call("storage.open", root, -1, 0, "", func() (err error) {
			if sw, err = storage.NewSlabWriter(outPath, sys.NX, sys.NY, sys.NZ); err != nil {
				return err
			}
			journal, err = storage.OpenJournal(journalPath, plan.Fingerprint())
			return err
		})
		if err != nil {
			return nil, err
		}
		launch, closeWorld, err := r.launcher(tr, root)
		if err != nil {
			return nil, err
		}
		defer closeWorld()
		var mu sync.Mutex
		world := tr.begin(spanWorld, root, -1)
		err = launch(func(comm *mpi.Comm) error {
			rank := comm.Rank()
			rs := tr.begin(spanRank, world, rank)
			defer func() { tr.end(rs, 0, "") }()
			var group *mpi.Comm
			err := tr.call("mpi.Split", rs, rank, 0, "", func() (err error) {
				group, err = comm.Split(plan.GroupOf(rank), rank)
				return err
			})
			if err != nil {
				return err
			}
			led, err := rankWork(tr, rs, rank, plan, plan.GroupOf(rank), plan.RankInGroup(rank), src, 1, func(c int, slab *volume.Volume) error {
				// The barrier absorbs the wait for the other rank, so the
				// reduce span that follows is transfer and accumulation only.
				if err := tr.call("mpi.Barrier", rs, rank, 0, "", group.Barrier); err != nil {
					return err
				}
				err := tr.call("mpi.ReduceChunked", rs, rank, slab.Bytes(), "bytes", func() error {
					return group.ReduceChunked(0, slab.Data, sys.NX*sys.NY)
				})
				if err != nil || group.Rank() != 0 {
					return err
				}
				if err := tr.call("storage.WriteSlab", rs, rank, slab.Bytes(), "bytes", func() error { return sw.WriteSlab(slab) }); err != nil {
					return err
				}
				// Data before journal, as the driver orders them.
				if err := tr.call("storage.Sync", rs, rank, 0, "", sw.Sync); err != nil {
					return err
				}
				return tr.call("storage.Record", rs, rank, 1, "appends", func() error { return journal.Record(slab.Z0, c) })
			})
			if err != nil {
				return err
			}
			mu.Lock()
			addLedger(&res.ledger, led)
			res.reduceBytes += group.Stats().BytesSent
			mu.Unlock()
			return nil
		})
		tr.end(world, 0, "")
		if err != nil {
			return nil, err
		}
		err = tr.call("storage.Close", root, -1, volumeFileBytes(sys), "bytes", func() error {
			if err := sw.Close(); err != nil {
				return err
			}
			return journal.Remove()
		})
		if err != nil {
			return nil, err
		}
	}
	tr.end(root, 0, "")

	if res.sha, _, err = shaFile(outPath); err != nil {
		return nil, err
	}
	res.spans = tr.spans
	return res, nil
}

// launcher returns the world the workload's ranks run in: goroutines over
// channels, or a two-node fleet whose frames cross the loopback TCP stack
// exactly as between the CLI's processes.
func (r *wlRun) launcher(tr *tracer, root int) (launch func(fn func(*mpi.Comm) error) error, closeWorld func(), err error) {
	n := r.w.Ranks
	if r.w.World <= 1 {
		return func(fn func(*mpi.Comm) error) error {
			return mpi.RunWith(n, mpi.Options{}, fn)
		}, func() {}, nil
	}
	var fl *nettrans.Fleet
	err = tr.call("nettrans.NewFleet", root, -1, 0, "", func() (err error) {
		fl, err = nettrans.NewFleet(r.w.World, nettrans.Config{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	assign, err := nettrans.AssignRanks(n, n, liveProcs(r.w.World), r.w.World)
	if err != nil {
		fl.Close()
		return nil, nil, err
	}
	return func(fn func(*mpi.Comm) error) error {
		return errors.Join(fl.Run(n, assign, mpi.Options{Deadline: netDeadline}, fn)...)
	}, fl.Close, nil
}

func liveProcs(n int) []int {
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	return live
}

// driver makes one call of the real driver on the same input and returns
// its elapsed time and the sha256 of the volume it produced.
func (r *wlRun) driver(outPath, journalPath string) (seconds float64, sha string, err error) {
	w := r.w
	plan, err := w.plan()
	if err != nil {
		return 0, "", err
	}
	sys := plan.Sys
	src, err := storage.OpenStack(r.f.in)
	if err != nil {
		return 0, "", err
	}
	defer src.Close()

	if w.Ranks == 1 {
		sink, err := core.NewVolumeSink(sys)
		if err != nil {
			return 0, "", err
		}
		rep, err := core.ReconstructSingle(core.ReconOptions{
			Plan: plan, Source: src, Sink: sink,
			Device: device.New("local", 0, runtime.GOMAXPROCS(0)),
		})
		if err != nil {
			return 0, "", err
		}
		h := sha256.New()
		if err := sink.V.WriteRaw(h); err != nil {
			return 0, "", err
		}
		return rep.Elapsed.Seconds(), hex.EncodeToString(h.Sum(nil)), nil
	}

	sw, err := storage.NewSlabWriter(outPath, sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return 0, "", err
	}
	journal, err := storage.OpenJournal(journalPath, plan.Fingerprint())
	if err != nil {
		return 0, "", err
	}
	lead := core.ClusterOptions{Plan: plan, Source: src, Output: sw, Checkpoint: journal}
	if w.World <= 1 {
		rep, err := core.RunDistributed(lead)
		if err != nil {
			return 0, "", err
		}
		seconds = rep.Elapsed.Seconds()
	} else {
		// Driven over the fleet as internal/core/transport_test.go does:
		// group leaders live on node 0, the followers discard.
		fl, err := nettrans.NewFleet(w.World, nettrans.Config{})
		if err != nil {
			return 0, "", err
		}
		defer fl.Close()
		errs := make([]error, len(fl.Nodes))
		var wg sync.WaitGroup
		for i, node := range fl.Nodes {
			opts := core.ClusterOptions{Plan: plan, Source: src, Output: core.DiscardSink{}}
			if i == 0 {
				opts = lead
			}
			opts.Launch = node.Launcher(plan.NRanksPerGroup)
			opts.CollectiveDeadline = netDeadline
			wg.Add(1)
			go func(i int, opts core.ClusterOptions) {
				defer wg.Done()
				rep, err := core.RunDistributed(opts)
				if i == 0 && err == nil {
					seconds = rep.Elapsed.Seconds()
				}
				errs[i] = err
			}(i, opts)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, "", err
		}
	}
	if err := sw.Close(); err != nil {
		return 0, "", err
	}
	if err := journal.Remove(); err != nil {
		return 0, "", err
	}
	sha, _, err = shaFile(outPath)
	return seconds, sha, err
}

// singleThread replays rank 0's load → filter → upload → kernel once more
// with one worker on one OS thread: the plain single-threaded baseline of
// the same problem. It returns the filter and kernel spans' sums.
func (r *wlRun) singleThread() (filterS float64, rows int64, kernelS float64, updates int64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plan, err := r.w.plan()
	if err != nil {
		return
	}
	src, err := storage.OpenStack(r.f.in)
	if err != nil {
		return
	}
	defer src.Close()
	tr := newTracer(r.w.Name)
	if _, err = rankWork(tr, -1, 0, plan, 0, 0, src, 1, func(int, *volume.Volume) error { return nil }); err != nil {
		return
	}
	filterS, rows = sumByName(tr.spans, "filter.FilterRows", allRanks)
	kernelS, updates = sumByName(tr.spans, "backproject.StreamingKernel", allRanks)
	return
}
