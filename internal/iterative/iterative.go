// Package iterative implements the iterative-reconstruction (IR) algorithm
// class the paper compares against (Table 2's SIRT/MLEM/MBIR frameworks —
// Trace, TIGRE, the ASTRA extension of Palenstijn et al.): SIRT and its
// ordered-subsets acceleration OS-SART, built on this repository's
// projector pair. The forward operator A is the ray-driven trilinear
// integrator (forward.ProjectVolumeSubset); the transpose surrogate Aᵀ is
// the voxel-driven bilinear back-projection kernel — the same "unmatched
// projector pair" production IR toolkits use, made convergent by the
// SIRT row/column normalisations
//
//	x_{k+1} = x_k + λ · C⁻¹ Aᵀ R⁻¹ (b − A x_k),
//
// where R = A·1 (ray intersection lengths) and C = Aᵀ·1 (voxel
// sensitivities) are computed with the same operators.
package iterative

import (
	"fmt"
	"math"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/forward"
	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// Options configures a SIRT / OS-SART reconstruction.
type Options struct {
	// Iterations is the number of full passes over the data.
	Iterations int
	// Relaxation is the step size λ ∈ (0, 2); 0 defaults to 1.
	Relaxation float64
	// Subsets splits the angles into interleaved ordered subsets:
	// 1 (default) is classic SIRT, larger values give OS-SART's faster
	// early convergence.
	Subsets int
	// NonNegative clamps the image to x ≥ 0 after every update, the
	// standard attenuation-physics constraint.
	NonNegative bool
	// Step is the forward integration step in mm (≤ 0 picks half the
	// smallest voxel pitch).
	Step float64
	// Workers bounds CPU parallelism (0 = GOMAXPROCS).
	Workers int
	// Initial, when non-nil, seeds the iteration (e.g. an FDK volume
	// for hybrid FDK+IR refinement); it is not modified.
	Initial *volume.Volume
	// Callback, when non-nil, observes each iteration's relative
	// residual ‖b − A x‖/‖b‖ and may stop the iteration early by
	// returning false.
	Callback func(iter int, relResidual float64) bool
}

// Result carries the reconstruction and its convergence history.
type Result struct {
	Volume *volume.Volume
	// Residuals holds the relative residual after each iteration.
	Residuals []float64
	// Iterations is the number of iterations actually performed.
	Iterations int
}

// subset holds one angle subset's fixtures for the whole solve.
type subset struct {
	ps      []int              // global projection indices
	mats    []geometry.Mat34x4 // kernel matrices in ps order
	meas    *projection.Stack  // measured data for these angles
	rowNorm []float32          // R = A_s·1, clamped
	colNorm []float32          // C_s = A_sᵀ·1, clamped
	// proj holds A_s·x, then what the update back-projects; ring is the
	// full-height store the kernel reads it from.
	proj *projection.Stack
	ring *device.ProjRing
}

// method is what tells one algorithm from another on the sub-iteration loop
// they share: what a sample back-projects and how a voxel takes its update.
type method struct {
	// multiplicative marks an update that scales the image (EM): it needs
	// nonnegative data and a positive start image, starts from ones
	// without Options.Initial, and reconstructs all-zero data to zero.
	multiplicative bool
	// back maps a sample's measured value b, its forward projection ax and
	// its row norm rn to what is back-projected.
	back func(b, ax, rn float32) float32
	// update returns voxel x updated by its back-projection z and its
	// column norm c.
	update func(x, z, c float32) float32
}

// Reconstruct runs SIRT (Subsets == 1) or OS-SART over the measured
// projection stack, which must be a full-origin stack matching sys.
func Reconstruct(sys *geometry.System, measured *projection.Stack, opts Options) (*Result, error) {
	lambda := opts.Relaxation
	if lambda == 0 {
		lambda = 1
	}
	if lambda <= 0 || lambda >= 2 {
		return nil, fmt.Errorf("iterative: relaxation %g outside (0,2)", lambda)
	}
	lam := float32(lambda)
	return solve(sys, measured, opts, method{
		// r = b_s − A_s x, back-projected as r ⊘ R.
		back: func(b, ax, rn float32) float32 { return (b - ax) / rn },
		// x += λ · z ⊘ C
		update: func(x, z, c float32) float32 {
			x += lam * z / c
			if opts.NonNegative && x < 0 {
				x = 0
			}
			return x
		},
	})
}

// solve is the sub-iteration loop of every algorithm in the package: per
// subset, the forward projection A_s·x, the samples m.back makes of it, their
// back-projection z = A_sᵀ(·) from the subset's ring, and m.update of every
// voxel. It owns one device, one z volume, and per subset one stack and one
// ring, so a sub-iteration allocates no volume and no stack.
func solve(sys *geometry.System, measured *projection.Stack, opts Options, m method) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if measured.NU != sys.NU || measured.NP != sys.NP || measured.NV != sys.NV || measured.V0 != 0 || measured.P0 != 0 {
		return nil, fmt.Errorf("iterative: stack %dx%dx%d@%d,%d does not match system %dx%dx%d",
			measured.NU, measured.NP, measured.NV, measured.V0, measured.P0, sys.NU, sys.NP, sys.NV)
	}
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("iterative: Iterations=%d must be positive", opts.Iterations)
	}
	nsub := max(opts.Subsets, 1)
	if nsub > sys.NP {
		return nil, fmt.Errorf("iterative: %d subsets exceed NP=%d", nsub, sys.NP)
	}
	x, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	if opts.Initial != nil && !opts.Initial.SameShape(x) {
		return nil, fmt.Errorf("iterative: initial volume %s does not match grid", opts.Initial.ShapeString())
	}
	if m.multiplicative {
		for i, b := range measured.Data {
			if b < 0 {
				return nil, fmt.Errorf("iterative: MLEM needs nonnegative data; sample %d = %g", i, b)
			}
		}
		x.Fill(1)
	}
	if opts.Initial != nil {
		for i, v := range opts.Initial.Data {
			if m.multiplicative && v <= 0 {
				return nil, fmt.Errorf("iterative: MLEM initial image must be positive (voxel %d = %g)", i, v)
			}
			x.Data[i] = v
		}
	}
	res := &Result{Volume: x}
	bNorm := l2(measured.Data)
	if bNorm == 0 {
		if m.multiplicative {
			x.Zero()
		}
		return res, nil
	}

	dev := device.New("iterative", 0, opts.Workers)
	subs, err := buildSubsets(dev, sys, measured, nsub, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range subs {
			s.ring.Close()
		}
	}()
	z, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	for it := 0; it < opts.Iterations; it++ {
		var sumSq float64
		for _, s := range subs {
			if err := forward.ProjectVolumeSubset(sys, x, opts.Step, opts.Workers, s.ps, s.proj); err != nil {
				return nil, err
			}
			for i, ax := range s.proj.Data {
				b := s.meas.Data[i]
				r := b - ax
				sumSq += float64(r) * float64(r)
				s.proj.Data[i] = m.back(b, ax, s.rowNorm[i])
			}
			z.Zero()
			if err := backprojectInto(dev, s, z); err != nil {
				return nil, err
			}
			for i := range x.Data {
				x.Data[i] = m.update(x.Data[i], z.Data[i], s.colNorm[i])
			}
		}
		rel := math.Sqrt(sumSq) / bNorm
		res.Residuals = append(res.Residuals, rel)
		res.Iterations = it + 1
		if opts.Callback != nil && !opts.Callback(it, rel) {
			break
		}
	}
	return res, nil
}

// backprojectInto loads the subset's stack into its ring and adds
// A_sᵀ·proj to vol.
func backprojectInto(dev *device.Device, s subset, vol *volume.Volume) error {
	s.ring.Reset()
	if err := s.ring.LoadRows(s.proj, s.proj.Rows()); err != nil {
		return err
	}
	return backproject.Streaming(dev, s.ring, s.mats, vol, s.proj.Rows())
}

// buildSubsets precomputes the interleaved angle subsets with their
// matrices, measured slices, stacks, rings and normalisations.
func buildSubsets(dev *device.Device, sys *geometry.System, measured *projection.Stack, nsub int, opts Options) ([]subset, error) {
	const normFloor = 1e-6
	ones, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	ones.Fill(1)

	subs := make([]subset, nsub)
	for si := 0; si < nsub; si++ {
		var s subset
		for p := si; p < sys.NP; p += nsub {
			s.ps = append(s.ps, p)
			s.mats = append(s.mats, sys.Matrix(sys.Angle(p)).ToKernel())
		}
		// Measured data for the subset, in the same (v, idx, u) layout
		// the forward operator produces.
		if s.meas, err = projection.NewStack(sys.NU, len(s.ps), sys.NV); err != nil {
			return nil, err
		}
		for v := 0; v < sys.NV; v++ {
			for idx, p := range s.ps {
				src, err := measured.Row(v, p)
				if err != nil {
					return nil, err
				}
				dst, _ := s.meas.Row(v, idx)
				copy(dst, src)
			}
		}
		// R = A_s·1: ray intersection lengths with the volume.
		rproj, err := projection.NewStack(sys.NU, len(s.ps), sys.NV)
		if err != nil {
			return nil, err
		}
		if err := forward.ProjectVolumeSubset(sys, ones, opts.Step, opts.Workers, s.ps, rproj); err != nil {
			return nil, err
		}
		s.rowNorm = rproj.Data
		for i, r := range s.rowNorm {
			if r < normFloor {
				s.rowNorm[i] = normFloor
			}
		}
		// C = A_sᵀ·1: voxel sensitivities under the transpose surrogate,
		// the first launch from the subset's ring.
		if s.proj, err = projection.NewStack(sys.NU, len(s.ps), sys.NV); err != nil {
			return nil, err
		}
		for i := range s.proj.Data {
			s.proj.Data[i] = 1
		}
		if s.ring, err = device.NewProjRing(dev, sys.NU, len(s.ps), sys.NV); err != nil {
			return nil, err
		}
		col, err := volume.New(sys.NX, sys.NY, sys.NZ)
		if err != nil {
			return nil, err
		}
		if err := backprojectInto(dev, s, col); err != nil {
			return nil, err
		}
		s.colNorm = col.Data
		for i, c := range s.colNorm {
			if c < normFloor {
				s.colNorm[i] = normFloor
			}
		}
		subs[si] = s
	}
	return subs, nil
}

func l2(xs []float32) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x) * float64(x)
	}
	return math.Sqrt(sum)
}
