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
// concurrent use by many goroutines: each supplies its own Scratch or
// borrows one from the filter's pool. A filtered row's bytes depend on that
// row and its v only — never on which rows it is filtered next to, or by
// which worker.
type FDK struct {
	nu, nv  int
	plan    *fft.RealPlan // carries the windowed ramp's response
	weights []float32     // nv×nu cosine weights, row-major
	window  Window
	scratch sync.Pool // of *Scratch
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
	f.scratch.New = func() any { return f.NewScratch() }
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

// FFTSize returns the transform length used for row filtering.
func (f *FDK) FFTSize() int { return f.plan.Size() }

// Scratch is the per-goroutine workspace for row filtering: the row's
// even and odd samples as the real and imaginary parts of one complex
// sequence of FFTSize/2 points.
type Scratch struct {
	zr, zi []float64
}

// NewScratch allocates a workspace sized for this filter.
func (f *FDK) NewScratch() *Scratch {
	m := f.plan.WorkLen()
	return &Scratch{zr: make([]float64, m), zi: make([]float64, m)}
}

// FilterRow filters one detector row in place. v is the physical detector
// row index of the data (used to look up the cosine weight); it must lie in
// [0, NV). A short scan's redundancy weights are applied to the row
// beforehand (Parker.ApplyRow). A nil s borrows a workspace from the
// filter's pool for the call.
func (f *FDK) FilterRow(row []float32, v int, s *Scratch) error {
	if len(row) != f.nu {
		return fmt.Errorf("filter: row length %d, want %d", len(row), f.nu)
	}
	if v < 0 || v >= f.nv {
		return fmt.Errorf("filter: row index %d outside detector [0,%d)", v, f.nv)
	}
	if s == nil {
		s = f.scratch.Get().(*Scratch)
		defer f.scratch.Put(s)
	}
	// Every sample is packed before the row is written.
	live := pack(s.zr, s.zi, row, f.weights[v*f.nu:(v+1)*f.nu])
	if err := f.plan.Convolve(s.zr, s.zi, live); err != nil {
		return err
	}
	unpack(row, s.zr, s.zi)
	return nil
}

// FilterRows filters count contiguous rows stored back to back in data,
// where row i of the buffer corresponds to physical detector row
// vOf(i). Each of workers goroutines (0 means GOMAXPROCS) takes one
// contiguous block of rows, mirroring the paper's OpenMP-parallel filtering
// thread.
func (f *FDK) FilterRows(data []float32, count int, vOf func(i int) int, workers int) error {
	if len(data) != count*f.nu {
		return fmt.Errorf("filter: buffer holds %d values, want %d rows × %d", len(data), count, f.nu)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	block := func(lo, hi int) error {
		s := f.scratch.Get().(*Scratch)
		defer f.scratch.Put(s)
		for i := lo; i < hi; i++ {
			if err := f.FilterRow(data[i*f.nu:(i+1)*f.nu], vOf(i), s); err != nil {
				return err
			}
		}
		return nil
	}
	if workers <= 1 {
		return block(0, count)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			errs[wk] = block(wk*count/workers, (wk+1)*count/workers)
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
