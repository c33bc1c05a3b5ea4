// Package perfmodel implements the analytical performance model of
// Section 5 of the paper: per-batch stage costs (Equations 13–16), the
// pipelined total-runtime projection of Equation 17, and the
// micro-benchmark parameter set the model is fed with (the paper measures
// BWload, THflt, THbp, THreduce and BWpci on ABCI; this package carries the
// published ABCI values and can also measure this machine's equivalents).
package perfmodel

import (
	"fmt"

	"distfdk/internal/core"
	"distfdk/internal/geometry"
)

// Params are the micro-benchmark inputs of the model. All rates are
// bytes/second except THbp, which is voxel-projection updates/second (the
// GUPS unit scaled by 1e9).
type Params struct {
	Name string
	// BWLoad is the per-rank throughput of loading projections from
	// local storage.
	BWLoad float64
	// BWStore is the aggregate parallel-filesystem write throughput,
	// shared by all concurrent writers.
	BWStore float64
	// THFilter is the per-rank filtering throughput (bytes/s of
	// projection data).
	THFilter float64
	// THBP is the per-device back-projection throughput in
	// updates/second (1 GUPS = 1e9).
	THBP float64
	// THReduce is the per-rank MPI_Reduce throughput (bytes/s).
	THReduce float64
	// BWPCI is the host↔device interconnect throughput per device.
	BWPCI float64
}

// Validate checks that every rate is positive.
func (p Params) Validate() error {
	for _, v := range []struct {
		name string
		rate float64
	}{
		{"BWLoad", p.BWLoad}, {"BWStore", p.BWStore}, {"THFilter", p.THFilter},
		{"THBP", p.THBP}, {"THReduce", p.THReduce}, {"BWPCI", p.BWPCI},
	} {
		if v.rate <= 0 {
			return fmt.Errorf("perfmodel: %s = %g must be positive", v.name, v.rate)
		}
	}
	return nil
}

// ABCI returns the parameter set of the paper's evaluation platform: V100
// GPUs behind PCIe 3.0 ×16 (~12 GB/s effective), NVMe local storage
// (~2 GB/s per rank), IPP filtering (~4 GB/s/rank over 10 cores/rank),
// ~29 GB/s aggregate Lustre store bandwidth (§6.3 reports
// BWstore ≈ 28.5 GB/s), ~118 GUPS back-projection (Table 5 reports
// 111–129 GUPS on V100) and ~5 GB/s MPI_Reduce over InfiniBand EDR.
func ABCI() Params {
	return Params{
		Name:     "abci-v100",
		BWLoad:   2.0e9,
		BWStore:  28.5e9,
		THFilter: 4.0e9,
		THBP:     118e9,
		THReduce: 5.0e9,
		BWPCI:    12.0e9,
	}
}

// StageTimes are the per-batch costs of Equation 16's terms for one rank.
type StageTimes struct {
	Load, Filter, H2D, BP, D2H, Reduce, Store float64 // seconds
}

// CPU returns T_CPU^i = T_load + T_filter (Equation 16).
func (s StageTimes) CPU() float64 { return s.Load + s.Filter }

// GPU returns T_GPU^i = T_H2D + T_bp + T_D2H (Equation 16).
func (s StageTimes) GPU() float64 { return s.H2D + s.BP + s.D2H }

// Model evaluates the Section 5 performance model for a decomposition
// plan.
type Model struct {
	Plan   *core.Plan
	Params Params
}

// New builds a model after validating its inputs.
func New(plan *core.Plan, params Params) (*Model, error) {
	if plan == nil {
		return nil, fmt.Errorf("perfmodel: plan is required")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Model{Plan: plan, Params: params}, nil
}

const eta = 4 // sizeof(float32), the η of the paper

// Batch returns the stage times of batch c for a rank of group g
// (Equations 13–15 and the T_D2H/T_reduce/T_store definitions).
func (m *Model) Batch(g, c int) StageTimes {
	p := m.Plan
	sys := p.Sys
	var prev geometry.RowRange
	if c > 0 {
		prev = p.SlabRows(g, c-1)
	}
	cur := p.SlabRows(g, c)
	_, nz := p.SlabZ(g, c)
	if nz == 0 {
		return StageTimes{}
	}
	diff := geometry.DifferentialRows(prev, cur)
	share := sys.NP / p.NRanksPerGroup
	// Equation 13: the first batch loads Size_AB (Equation 5), later ones
	// Size_BB (Equation 7).
	loadBytes := float64(eta) * float64(int64(sys.NU)*int64(share)*int64(diff.Len()))
	// Equation 15: the slab this batch produces.
	slabBytes := float64(eta) * float64(int64(sys.NX)*int64(sys.NY)*int64(nz))
	// Equation 14: updates = Nx·Ny·Nb·Np/Nr.
	updates := float64(int64(sys.NX) * int64(sys.NY) * int64(nz) * int64(share))

	return StageTimes{
		Load:   loadBytes / m.Params.BWLoad,
		Filter: loadBytes / m.Params.THFilter,
		H2D:    loadBytes / m.Params.BWPCI,
		BP:     updates / m.Params.THBP,
		D2H:    slabBytes / m.Params.BWPCI,
		Reduce: reduceTime(slabBytes, p.NRanksPerGroup, m.Params.THReduce),
		// The PFS is shared: Ng groups store concurrently, so each
		// sees 1/Ng of the aggregate bandwidth.
		Store: slabBytes / (m.Params.BWStore / float64(p.NGroups)),
	}
}

// reduceTime models a binomial-tree reduce of `bytes` over nr ranks:
// ⌈log2(nr)⌉ sequential rounds at THReduce.
func reduceTime(bytes float64, nr int, th float64) float64 {
	if nr <= 1 {
		return 0
	}
	rounds := 0
	for n := nr - 1; n > 0; n >>= 1 {
		rounds++
	}
	return float64(rounds) * bytes / th
}

// Runtime evaluates Equation 17: the pipeline startup terms of batch 0
// plus the maximum over the per-resource sums of the remaining batches
// (perfect overlap assumption).
func (m *Model) Runtime(g int) float64 {
	b0 := m.Batch(g, 0)
	total := b0.CPU() + b0.GPU() + b0.Reduce + b0.Store
	var cpu, gpu, reduce, store float64
	for c := 1; c < m.Plan.BatchCount; c++ {
		b := m.Batch(g, c)
		cpu += b.CPU()
		gpu += b.GPU()
		reduce += b.Reduce
		store += b.Store
	}
	return total + max4(cpu, gpu, reduce, store)
}

// WorstRuntime returns the projected runtime of the slowest group — the
// "Projected" series of Figures 13 and 14.
func (m *Model) WorstRuntime() float64 {
	worst := 0.0
	for g := 0; g < m.Plan.NGroups; g++ {
		if t := m.Runtime(g); t > worst {
			worst = t
		}
	}
	return worst
}

// GUPS converts a runtime into the paper's throughput metric
// Nx·Ny·Nz·Np / (T·1e9) (footnote 2 of Section 6.2).
func GUPS(sys *geometry.System, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	updates := float64(int64(sys.NX) * int64(sys.NY) * int64(sys.NZ) * int64(sys.NP))
	return updates / (seconds * 1e9)
}

func max4(a, b, c, d float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	if d > m {
		m = d
	}
	return m
}
