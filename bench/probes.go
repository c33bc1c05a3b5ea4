package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"distfdk/internal/mpi"
	"distfdk/internal/mpi/nettrans"
)

// sink keeps probe results observable so the compiler keeps the loops;
// only the launching goroutine writes it.
var sink float32

// scalarLoop is the portable multiply-add probe: eight independent
// float32 chains, 16 FLOP per iteration. It returns the FLOP performed and
// the chains' sum.
func scalarLoop(iters int64) (int64, float32) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	x, y := float32(1e-3), float32(1e-3)
	for i := int64(0); i < iters; i++ {
		a0 += x * y
		a1 += x * y
		a2 += x * y
		a3 += x * y
		a4 += x * y
		a5 += x * y
		a6 += x * y
		a7 += x * y
	}
	return iters * 16, a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// onAllProcs runs fn(i) on GOMAXPROCS goroutines and returns the elapsed
// seconds.
func onAllProcs(fn func(i, n int)) float64 {
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, n)
		}(i)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// peakGFLOPS is the best of three passes of the multiply-add probe on
// every processor: the compute roof of the roofline.
func peakGFLOPS(iters int64) float64 {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		var flop int64
		var sum float32
		var mu sync.Mutex
		s := onAllProcs(func(int, int) {
			f, v := peakLoop(iters)
			mu.Lock()
			flop, sum = flop+f, sum+v
			mu.Unlock()
		})
		sink = sum
		best = max(best, float64(flop)/s/1e9)
	}
	return best
}

// triadGBs is the best of three passes of a[i] = b[i] + s·c[i] over three
// arrays of n float32 each, split over every processor, counted as three
// words moved per element (the STREAM convention): the sustainable memory
// bandwidth of the roofline.
func triadGBs(n int) float64 {
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	pass := func() float64 {
		return onAllProcs(func(i, procs int) {
			lo, hi := i*n/procs, (i+1)*n/procs
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for j := range aa {
				aa[j] = bb[j] + 3*cc[j]
			}
		})
	}
	pass() // first touch
	best := 0.0
	for i := 0; i < 3; i++ {
		best = max(best, 12*float64(n)/pass()/1e9)
	}
	sink = a[n/2]
	return best
}

// cacheSizes reads the cache hierarchy of cpu0 from sysfs: level name to
// bytes, and the size of the last level (0 when sysfs does not say).
func cacheSizes() (map[string]int64, int64) {
	sizes := map[string]int64{}
	var llc int64
	var top int
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		level, err := strconv.Atoi(read("level"))
		if err != nil {
			continue
		}
		bytes := parseSize(read("size"))
		name := "L" + strconv.Itoa(level)
		switch read("type") {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		sizes[name] = bytes
		if level > top {
			top, llc = level, bytes
		}
	}
	return sizes, llc
}

// parseSize reads sysfs sizes such as "4096K".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// triadElems sizes the triad so its three arrays together are four times
// the last-level cache, capped at limit bytes in total.
func triadElems(llc, limit int64) int {
	total := 4 * llc
	if total <= 0 {
		total = 128 << 20
	}
	return int(min(total, limit) / 12)
}

// netProbe measures the socket transport by itself on a two-node loopback
// fleet: formation (NewFleet plus an empty epoch), the median round trip of
// pings 8-byte ping-pongs, and the throughput of sends 8 MiB []float32
// messages from rank 0 to rank 1.
func netProbe(pings, sends int) (formationS, rttUs, p2pGBs float64, err error) {
	opt := mpi.Options{Deadline: netDeadline}
	assign := [][]int{{0}, {1}}
	t0 := time.Now()
	fl, err := nettrans.NewFleet(2, nettrans.Config{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer fl.Close()
	if err := errors.Join(fl.Run(2, assign, opt, func(*mpi.Comm) error { return nil })...); err != nil {
		return 0, 0, 0, err
	}
	formationS = time.Since(t0).Seconds()

	const tagPing, tagBulk, tagAck = 1, 2, 3
	const bulkElems = 2 << 20
	rtts := make([]float64, 0, pings)
	err = errors.Join(fl.Run(2, assign, opt, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		ping := make([]float32, 2)
		if c.Rank() == 1 {
			for i := 0; i < pings; i++ {
				if _, err := c.Recv(peer, tagPing); err != nil {
					return err
				}
				if err := c.Send(peer, tagPing, ping); err != nil {
					return err
				}
			}
			for i := 0; i < sends; i++ {
				if _, err := c.Recv(peer, tagBulk); err != nil {
					return err
				}
			}
			return c.Send(peer, tagAck, ping)
		}
		for i := 0; i < pings; i++ {
			t := time.Now()
			if err := c.Send(peer, tagPing, ping); err != nil {
				return err
			}
			if _, err := c.Recv(peer, tagPing); err != nil {
				return err
			}
			rtts = append(rtts, float64(time.Since(t))/1e3)
		}
		bulk := make([]float32, bulkElems)
		t := time.Now()
		for i := 0; i < sends; i++ {
			if err := c.Send(peer, tagBulk, bulk); err != nil {
				return err
			}
		}
		if _, err := c.Recv(peer, tagAck); err != nil {
			return err
		}
		p2pGBs = float64(sends) * 4 * bulkElems / time.Since(t).Seconds() / 1e9
		return nil
	})...)
	if err != nil {
		return 0, 0, 0, err
	}
	sort.Float64s(rtts)
	return formationS, rtts[len(rtts)/2], p2pGBs, nil
}
