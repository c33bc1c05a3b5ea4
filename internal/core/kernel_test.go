package core

import (
	"testing"

	"distfdk/internal/cpufeat"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/projection"
)

// The fast kernel has one arithmetic and the row filter has one, so what a
// driver computes does not depend on the host: every driver — single,
// distributed, a Z window, baseline — run with AVX2 masked off (as on
// any other host) reproduces its default run byte for byte and counter for
// counter, except for the count of which spelling was dispatched: the
// assembly where the host has AVX2, else the Go one. Masking AVX2 also moves
// the row filter from its vector passes to its Go passes, so the equality
// is the filter's whole-volume AVX2 ≡ portable check too. The single driver
// is additionally held to the monolithic batch reference.
func TestDefaultKernelEveryDriver(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	// A driver run: its voxels and the device ledgers that produced them.
	type run struct {
		voxels  []float32
		ledgers []device.Ledger
	}
	drivers := []struct {
		name string
		run  func() run
	}{
		{"single", func() run {
			p, err := NewPlan(sys, 1, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			sink, _ := NewVolumeSink(sys)
			rep, err := ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: device.New("single", 0, 2), Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			return run{sink.V.Data, []device.Ledger{rep.Ledger}}
		}},
		{"distributed", func() run {
			p, err := NewPlan(sys, 1, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			sink, _ := NewVolumeSink(sys)
			rep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink})
			if err != nil {
				t.Fatal(err)
			}
			return run{sink.V.Data, rep.Ledgers}
		}},
		{"window", func() run {
			p, err := NewWindowPlan(sys, 1, 1, 8, 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			sink := windowSink(t, p)
			rep, err := ReconstructSingle(ReconOptions{Plan: p, Source: src, Device: device.New("window", 0, 2), Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			return run{sink.V.Data, []device.Ledger{rep.Ledger}}
		}},
		{"baseline", func() run {
			sink, _ := NewVolumeSink(sys)
			rep, err := RunBatchBaseline(BaselineOptions{Sys: sys, Ranks: 2, ChunkCount: 2, Source: src, Output: sink})
			if err != nil {
				t.Fatal(err)
			}
			return run{sink.V.Data, rep.Ledgers}
		}},
	}
	// said checks that every launch of a run dispatched to want, and returns
	// the ledgers with the dispatch record cleared.
	said := func(name string, r run, want device.Arithmetic) []device.Ledger {
		t.Helper()
		out := make([]device.Ledger, len(r.ledgers))
		for i, l := range r.ledgers {
			if l.Dispatched[want] != l.KernelLaunches || l.Arithmetic() != want.String() {
				t.Errorf("%s driver, ledger %d: ran %q (%d of %d launches %s)", name, i, l.Arithmetic(), l.Dispatched[want], l.KernelLaunches, want)
			}
			l.Dispatched = [len(l.Dispatched)]int64{}
			out[i] = l
		}
		return out
	}

	host := device.ArithmeticScalar
	if cpufeat.AVX2() {
		host = device.ArithmeticAVX2
	}
	defaults := make([]run, len(drivers))
	for i, d := range drivers {
		defaults[i] = d.run()
	}
	want := reference(t, sys, st, filter.RamLak)
	for i, x := range want.Data {
		if got := defaults[0].voxels[i]; got != x {
			t.Fatalf("single driver vs monolithic batch: voxel %d: %g != %g", i, got, x)
		}
	}

	// Any host without AVX2.
	defer cpufeat.SetAVX2ForTest(false)()
	for i, d := range drivers {
		def, masked := defaults[i], d.run()
		for v := range def.voxels {
			if def.voxels[v] != masked.voxels[v] {
				t.Fatalf("%s driver: voxel %d: %g without AVX2, %g by default", d.name, v, masked.voxels[v], def.voxels[v])
			}
		}
		dl, ml := said(d.name, def, host), said(d.name+" (no AVX2)", masked, device.ArithmeticScalar)
		for r := range dl {
			// Transfer and launch counts are in the ledger too: they must
			// not move either.
			if dl[r] != ml[r] {
				t.Errorf("%s driver, ledger %d: counters depend on the dispatch:\ndefault %+v\nno AVX2 %+v", d.name, r, dl[r], ml[r])
			}
		}
	}
}
