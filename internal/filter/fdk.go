package filter

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"distfdk/internal/fft"
)

// FDK performs the per-row filtering computation of Equation 2: each
// detector row is multiplied point-wise by the cosine (distance) weight
// Dsd/√(D(u,v)²+Dsd²) and then convolved with the one-dimensional ramp
// filter. One FDK value is built per acquisition geometry and is safe for
// concurrent use by many goroutines: each worker borrows a workspace from
// the filter's pool. A filtered row's bytes depend on that row and its v
// only — never on which rows it is filtered next to, or by which worker.
type FDK struct {
	nu, nv  int
	plan    *fft.RealPlan // carries the windowed ramp's response
	weights []float32     // nv×nu cosine weights, row-major
	window  Window
	pool    sync.Pool // of *scratch
}

// Config carries the geometry slice that filtering needs. Scale folds the
// angular quadrature of the FDK reconstruction formula (Δβ/2 = angleRange /
// (2·Np)) into the filtered values so Algorithm 1's accumulation needs no
// further normalisation.
type Config struct {
	NU, NV         int
	DU, DV         float64
	DSD            float64
	SigmaU, SigmaV float64
	Window         Window
	Scale          float64
	// RampPitch is the sample pitch used for the ramp convolution. The
	// FDK derivation filters on the *virtual* detector through the
	// rotation axis, so the correct value is DU·Dso/Dsd; zero defaults
	// to DU (a parallel-beam-style approximation that underweights the
	// reconstruction by Dso/Dsd).
	RampPitch float64
}

// NewFDK builds the filter tables for the given configuration.
func NewFDK(cfg Config) (*FDK, error) {
	if cfg.NU <= 0 || cfg.NV <= 0 {
		return nil, fmt.Errorf("filter: detector %dx%d must be positive", cfg.NU, cfg.NV)
	}
	if cfg.DU <= 0 || cfg.DV <= 0 {
		return nil, fmt.Errorf("filter: pixel pitch %gx%g must be positive", cfg.DU, cfg.DV)
	}
	if cfg.DSD <= 0 {
		return nil, fmt.Errorf("filter: DSD %g must be positive", cfg.DSD)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	rampPitch := cfg.RampPitch
	if rampPitch == 0 {
		rampPitch = cfg.DU
	}
	if rampPitch < 0 {
		return nil, fmt.Errorf("filter: ramp pitch %g must be positive", rampPitch)
	}
	// Zero-padding to n ≥ 2·NU makes the circular convolution linear (rows
	// of four samples or fewer are padded further, to the shortest plan);
	// the detector rows are real and the response symmetric (resp[k] ==
	// resp[n−k]), so the plan takes the independent bins 0..n/2 only.
	n := max(fft.NextPow2(2*cfg.NU), fft.MinRealSize)
	resp, err := rampResponse(n, rampPitch, cfg.Window, scale)
	if err != nil {
		return nil, err
	}
	plan, err := fft.NewRealPlan(n, resp[:n/2+1])
	if err != nil {
		return nil, err
	}
	f := &FDK{nu: cfg.NU, nv: cfg.NV, plan: plan, window: cfg.Window}
	f.pool.New = func() any { return f.newScratch() }
	f.weights = make([]float32, cfg.NV*cfg.NU)
	cu := (float64(cfg.NU)-1)/2 + cfg.SigmaU
	cv := (float64(cfg.NV)-1)/2 + cfg.SigmaV
	for v := 0; v < cfg.NV; v++ {
		dv := cfg.DV * (float64(v) - cv)
		for u := 0; u < cfg.NU; u++ {
			du := cfg.DU * (float64(u) - cu)
			d2 := du*du + dv*dv
			f.weights[v*cfg.NU+u] = float32(cfg.DSD / math.Sqrt(d2+cfg.DSD*cfg.DSD))
		}
	}
	return f, nil
}

// NU returns the row length the filter was built for.
func (f *FDK) NU() int { return f.nu }

// NV returns the detector height the filter was built for.
func (f *FDK) NV() int { return f.nv }

// Window returns the apodisation window in use.
func (f *FDK) Window() Window { return f.window }

// scratch is the per-goroutine workspace for row filtering: fft.Lanes rows,
// each row's even and odd samples as the real and imaginary parts of one
// complex sequence of half the transform's points, lane-interleaved as
// fft.RealPlan.ConvolveLanes takes them.
type scratch struct {
	zr, zi []float64
}

// newScratch allocates a workspace sized for this filter.
func (f *FDK) newScratch() *scratch {
	n := f.plan.WorkLen()
	return &scratch{zr: make([]float64, n), zi: make([]float64, n)}
}

// filterBatch filters the len(vs) ≤ fft.Lanes rows stored back to back in
// rows, row l at detector row vs[l], in one transform: row l in lane l, the
// lanes past the last row zero. Every row is packed before any is written.
func (f *FDK) filterBatch(rows []float32, vs []int, s *scratch) error {
	for _, v := range vs {
		if v < 0 || v >= f.nv {
			return fmt.Errorf("filter: row index %d outside detector [0,%d)", v, f.nv)
		}
	}
	pack(s.zr, s.zi, rows, f.nu, f.weights, vs)
	if err := f.plan.ConvolveLanes(s.zr, s.zi, (f.nu+1)/2); err != nil {
		return err
	}
	unpack(rows, f.nu, s.zr, s.zi, len(vs))
	return nil
}

// FilterRows filters count contiguous rows stored back to back in data,
// where row i of the buffer corresponds to physical detector row
// vOf(i), fft.Lanes consecutive rows per transform. Each of workers
// goroutines (0 means GOMAXPROCS) takes one contiguous block of whole
// batches, mirroring the paper's OpenMP-parallel filtering thread.
func (f *FDK) FilterRows(data []float32, count int, vOf func(i int) int, workers int) error {
	if len(data) != count*f.nu {
		return fmt.Errorf("filter: buffer holds %d values, want %d rows × %d", len(data), count, f.nu)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batches := (count + fft.Lanes - 1) / fft.Lanes
	if workers = min(workers, batches); workers <= 1 {
		return f.filterBlock(data, count, vOf, 0, batches)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := range errs {
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			errs[wk] = f.filterBlock(data, count, vOf, lo, hi)
		}(wk, wk*batches/len(errs), (wk+1)*batches/len(errs))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// filterBlock filters FilterRows' batches [lo, hi) on one workspace.
func (f *FDK) filterBlock(data []float32, count int, vOf func(i int) int, lo, hi int) error {
	s := f.pool.Get().(*scratch)
	defer f.pool.Put(s)
	var vs [fft.Lanes]int
	for b := lo; b < hi; b++ {
		first, last := b*fft.Lanes, min((b+1)*fft.Lanes, count)
		for i := first; i < last; i++ {
			vs[i-first] = vOf(i)
		}
		if err := f.filterBatch(data[first*f.nu:last*f.nu], vs[:last-first], s); err != nil {
			return err
		}
	}
	return nil
}
