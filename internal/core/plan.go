// Package core assembles the paper's distributed FBP framework: the
// decomposition plan over groups, ranks and slab batches (Table 3,
// Equations 3 and 9–12), the single-device out-of-core pipelined
// reconstructor (Section 4.4.3, Algorithm 3), and the multi-rank grouped
// reconstruction with segmented reduction (Sections 4.4.1–4.4.2).
package core

import (
	"fmt"
	"hash/fnv"

	"distfdk/internal/geometry"
)

// Plan captures how a reconstruction is decomposed. Following Table 3:
// Ngpus = Ng·Nr ranks are divided into Ng groups of Nr ranks; each group
// produces Ns = Nz/Ng output slices in Nc batches of Nb = Ns/Nc slices;
// within a group, each rank back-projects Np/Nr projections of every batch
// and the Nr partial slabs meet in a segmented reduction.
type Plan struct {
	Sys *geometry.System
	// NGroups is Ng, the number of rank groups.
	NGroups int
	// NRanksPerGroup is Nr, the ranks (devices) per group.
	NRanksPerGroup int
	// BatchCount is Nc, the slab batches per group (the paper fixes 8).
	BatchCount int

	// derived
	slicesPerGroup int // Ns (ceil)
	slicesPerBatch int // Nb (ceil)
}

// DefaultBatchCount is the Nc the paper uses throughout its evaluation.
const DefaultBatchCount = 8

// NewPlan validates and derives a decomposition plan.
func NewPlan(sys *geometry.System, nGroups, nRanksPerGroup, batchCount int) (*Plan, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if nGroups <= 0 || nRanksPerGroup <= 0 {
		return nil, fmt.Errorf("core: Ng=%d, Nr=%d must be positive", nGroups, nRanksPerGroup)
	}
	if batchCount <= 0 {
		batchCount = DefaultBatchCount
	}
	if sys.NP%nRanksPerGroup != 0 {
		return nil, fmt.Errorf("core: NP=%d not divisible by Nr=%d", sys.NP, nRanksPerGroup)
	}
	if nGroups > sys.NZ {
		return nil, fmt.Errorf("core: Ng=%d exceeds NZ=%d slices", nGroups, sys.NZ)
	}
	p := &Plan{Sys: sys, NGroups: nGroups, NRanksPerGroup: nRanksPerGroup, BatchCount: batchCount}
	p.slicesPerGroup = ceilDiv(sys.NZ, nGroups)
	p.slicesPerBatch = ceilDiv(p.slicesPerGroup, batchCount)
	return p, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Ranks returns the world size Ngpus = Ng·Nr (Equations 9 and 11).
func (p *Plan) Ranks() int { return p.NGroups * p.NRanksPerGroup }

// SlicesPerGroup returns Ns (Equation 10, rounded up for uneven NZ).
func (p *Plan) SlicesPerGroup() int { return p.slicesPerGroup }

// SlicesPerBatch returns Nb (Equation 12 inverted: Nb = Ns/Nc).
func (p *Plan) SlicesPerBatch() int { return p.slicesPerBatch }

// GroupOf returns the group index of a world rank (ranks are grouped
// consecutively, Section 4.4.1).
func (p *Plan) GroupOf(rank int) int { return rank / p.NRanksPerGroup }

// RankInGroup returns a world rank's index within its group.
func (p *Plan) RankInGroup(rank int) int { return rank % p.NRanksPerGroup }

// ProjWindow returns the global projection window [pLo, pHi) back-projected
// by group rank r (the Np-axis split of Section 3.1.3).
func (p *Plan) ProjWindow(r int) (int, int) {
	share := p.Sys.NP / p.NRanksPerGroup
	return r * share, (r + 1) * share
}

// SlabZ returns the Z window [z0, z0+nz) of batch c in group g; nz may be
// zero for trailing batches when NZ does not divide evenly.
func (p *Plan) SlabZ(g, c int) (z0, nz int) {
	groupLo := g * p.slicesPerGroup
	groupHi := min(groupLo+p.slicesPerGroup, p.Sys.NZ)
	z0 = groupLo + c*p.slicesPerBatch
	if z0 >= groupHi {
		return groupHi, 0
	}
	nz = min(p.slicesPerBatch, groupHi-z0)
	return
}

// SlabRows returns the detector-row range (Algorithm 2) that batch c of
// group g requires; empty when the batch has no slices.
func (p *Plan) SlabRows(g, c int) geometry.RowRange {
	z0, nz := p.SlabZ(g, c)
	if nz == 0 {
		return geometry.RowRange{}
	}
	return p.Sys.ComputeAB(z0, z0+nz)
}

// schedule returns group g's batches as the rank program runs them: the
// cut SlabZ describes, without the empty batches that trail when NZ does not
// divide evenly, so a batch's index is still its ordinal c.
func (p *Plan) schedule(g int) []batch {
	lo := g * p.slicesPerGroup
	return zSchedule(p.Sys, lo, min(p.slicesPerGroup, p.Sys.NZ-lo), p.slicesPerBatch)
}

// RingDepth returns the projection-ring depth (in detector rows) a rank of
// group g needs: the largest slab row extent of that group's batches. This
// is the device-memory knob the paper controls via Nc — more batches mean
// thinner slabs and a shallower ring.
func (p *Plan) RingDepth(g int) int { return ringDepth(p.schedule(g)) }

// MaxRingDepth returns the ring depth sufficient for every group.
func (p *Plan) MaxRingDepth() int {
	h := 0
	for g := 0; g < p.NGroups; g++ {
		if d := p.RingDepth(g); d > h {
			h = d
		}
	}
	return h
}

// InputElements returns the total projection samples a rank of group g
// loads across all batches (Σ SizeAB/SizeBB, Equations 5 and 7): the
// measure behind the "each byte moves once" property.
func (p *Plan) InputElements(g int) int64 {
	var total int64
	prev := geometry.RowRange{}
	share := int64(p.Sys.NP / p.NRanksPerGroup)
	for c := 0; c < p.BatchCount; c++ {
		cur := p.SlabRows(g, c)
		if cur.IsEmpty() {
			continue
		}
		diff := geometry.DifferentialRows(prev, cur)
		total += int64(p.Sys.NU) * share * int64(diff.Len())
		prev = cur
	}
	return total
}

// SlabBytes returns Size_vol (Equation 15) for a full-height batch slab.
func (p *Plan) SlabBytes() int64 {
	return 4 * int64(p.Sys.NX) * int64(p.Sys.NY) * int64(p.slicesPerBatch)
}

// SlabLayout returns every non-empty batch's output window as (z0, nz)
// pairs in ascending z0 order. The layout is the world-shape-invariant
// identity of the plan's outputs: two plans over the same geometry with
// equal layouts cut the volume into the same slabs at the same file
// offsets, whatever their (Ng, Nr, Nc) shape.
func (p *Plan) SlabLayout() [][2]int {
	var out [][2]int
	for g := 0; g < p.NGroups; g++ {
		for c := 0; c < p.BatchCount; c++ {
			if z0, nz := p.SlabZ(g, c); nz > 0 {
				out = append(out, [2]int{z0, nz})
			}
		}
	}
	return out // groups ascend, batches ascend within a group ⇒ z0 ascends
}

// Fingerprint identifies everything a checkpoint journal must agree on to
// be resumable: the full acquisition/volume geometry (any parameter change
// alters voxel values, so mixing journaled slabs across geometries would
// silently corrupt the output) and the slab layout (which names the bytes
// each record covers). It deliberately excludes (Ng, Nr, Nc): a shrunk
// re-plan that preserves the layout yields the same fingerprint and may
// resume the journal — the basis of supervised shrink-and-resume.
//
// The token is space-free (storage.OpenJournal requires that) and carries
// a human-readable volume-shape prefix ahead of the hash.
func (p *Plan) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v\n", *p.Sys)
	layout := p.SlabLayout()
	for _, s := range layout {
		fmt.Fprintf(h, "%d:%d ", s[0], s[1])
	}
	return fmt.Sprintf("plan1-%dx%dx%d-s%d-%016x",
		p.Sys.NX, p.Sys.NY, p.Sys.NZ, len(layout), h.Sum64())
}

func (p *Plan) String() string {
	return fmt.Sprintf("plan{Ng=%d Nr=%d Nc=%d Nb=%d ranks=%d vol=%dx%dx%d np=%d}",
		p.NGroups, p.NRanksPerGroup, p.BatchCount, p.slicesPerBatch,
		p.Ranks(), p.Sys.NX, p.Sys.NY, p.Sys.NZ, p.Sys.NP)
}
