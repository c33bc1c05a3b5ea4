package perfmodel

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// Measure runs the micro-benchmarks of Section 5 on this machine and
// returns the resulting parameter set. The paper measures its parameters
// with IOR-style storage probes, Intel MPI benchmarks and the CUDA SDK;
// here each probe exercises the corresponding subsystem of this repository
// so the model's inputs describe the code that actually runs. tmpDir
// receives the storage probe files; workers bounds CPU parallelism.
func Measure(tmpDir string, workers int) (Params, error) {
	p := Params{Name: "local"}

	// Storage probes: sequential write + read of a 32 MiB file.
	const probeBytes = 32 << 20
	buf := make([]byte, probeBytes)
	for i := range buf {
		buf[i] = byte(i)
	}
	path := filepath.Join(tmpDir, "perfmodel.probe")
	start := time.Now()
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return p, fmt.Errorf("perfmodel: store probe: %w", err)
	}
	p.BWStore = probeBytes / secondsSince(start)
	start = time.Now()
	if _, err := os.ReadFile(path); err != nil {
		return p, fmt.Errorf("perfmodel: load probe: %w", err)
	}
	p.BWLoad = probeBytes / secondsSince(start)
	os.Remove(path)

	// Filtering probe.
	const nu, rows = 1024, 256
	fdk, err := filter.NewFDK(filter.Config{NU: nu, NV: rows, DU: 0.5, DV: 0.5, DSD: 350})
	if err != nil {
		return p, err
	}
	data := make([]float32, nu*rows)
	start = time.Now()
	if err := fdk.FilterRows(data, rows, func(i int) int { return i % rows }, workers); err != nil {
		return p, err
	}
	p.THFilter = float64(len(data)*4) / secondsSince(start)

	// Back-projection probe.
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 128, NV: 128, DU: 0.5, DV: 0.5, NP: 32,
		NX: 64, NY: 64, NZ: 32, DX: 0.25, DY: 0.25, DZ: 0.25,
	}
	stack, err := projection.NewStack(sys.NU, sys.NP, sys.NV)
	if err != nil {
		return p, err
	}
	mats := make([]geometry.Mat34x4, sys.NP)
	for i := range mats {
		mats[i] = sys.Matrix(sys.Angle(i)).ToKernel()
	}
	vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return p, err
	}
	// Through a resident ring, as the rank program launches it: Batch would
	// add a host-side re-lay of the stack that no streaming run pays.
	dev := device.New("probe", 0, workers)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
	if err != nil {
		return p, err
	}
	defer ring.Close()
	if err := ring.LoadRows(stack, stack.Rows()); err != nil {
		return p, err
	}
	start = time.Now()
	if err := backproject.Streaming(dev, ring, mats, vol, stack.Rows()); err != nil {
		return p, err
	}
	p.THBP = float64(int64(vol.Voxels())*int64(sys.NP)) / secondsSince(start)

	// Memory-bandwidth probe stands in for PCIe (host↔"device" copies
	// are memcpys here).
	src := make([]float32, 8<<20)
	dst := make([]float32, 8<<20)
	start = time.Now()
	copy(dst, src)
	copy(src, dst)
	p.BWPCI = float64(len(src)*4*2) / secondsSince(start)

	// Reduce throughput: element-wise float32 accumulation.
	start = time.Now()
	for i := range dst {
		dst[i] += src[i]
	}
	p.THReduce = float64(len(dst)*4) / secondsSince(start)

	return p, p.Validate()
}

// secondsSince returns the elapsed seconds with a floor that avoids
// divide-by-zero on very fast probes.
func secondsSince(t time.Time) float64 {
	s := time.Since(t).Seconds()
	if s < 1e-9 {
		return 1e-9
	}
	return s
}
