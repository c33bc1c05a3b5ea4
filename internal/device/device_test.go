package device

import (
	"errors"
	"testing"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
)

func TestAllocFreeBudget(t *testing.T) {
	d := New("test", 1000, 1)
	if err := d.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(600); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if d.Allocated() != 600 {
		t.Fatalf("failed alloc must not leak: allocated=%d", d.Allocated())
	}
	d.Free(600)
	if err := d.Alloc(1000); err != nil {
		t.Fatalf("full-capacity alloc after free: %v", err)
	}
	if err := d.Alloc(-1); err == nil {
		t.Error("expected error for negative allocation")
	}
}

func TestUnlimitedDevice(t *testing.T) {
	d := New("big", 0, 0)
	if err := d.Alloc(1 << 60); err != nil {
		t.Fatalf("unlimited device rejected allocation: %v", err)
	}
	if d.WorkerCount() <= 0 {
		t.Fatal("WorkerCount must be positive")
	}
}

func TestLedgerAccounting(t *testing.T) {
	d := New("test", 0, 2)
	d.recordH2D(100, 1)
	d.recordH2D(50, 2)
	d.RecordD2H(30)
	d.RecordKernel(7)
	d.RecordKernel(5)
	l := d.Snapshot()
	if l.H2DBytes != 150 || l.H2DOps != 3 || l.D2HBytes != 30 || l.D2HOps != 1 {
		t.Fatalf("transfer ledger wrong: %+v", l)
	}
	if l.KernelLaunches != 2 || l.VoxelUpdates != 12 {
		t.Fatalf("kernel ledger wrong: %+v", l)
	}
	base := Ledger{H2DBytes: 100, H2DOps: 1}
	diff := l.Sub(base)
	if diff.H2DBytes != 50 || diff.H2DOps != 2 || diff.KernelLaunches != 2 {
		t.Fatalf("Sub wrong: %+v", diff)
	}
}

// The ledger names the arithmetic its launches dispatched to, and says so
// when they were not all the same.
// The ledger is a view of the device's counters and the registry is what
// they add to: every ledger field and ring number reaches the registry under
// its name, linking resets nothing, and a second device handed the same
// registry (the next attempt of a supervised run) starts its own view at
// zero while the registry keeps the total.
func TestSetTelemetryLinksEveryCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	work := func(d *Device) {
		d.recordH2D(100, 2)
		d.RecordD2H(30)
		d.RecordKernel(7)
		d.RecordKernelSamples(4, 2, 1)
		d.RecordDispatch(ArithmeticScalar)
		ring, err := NewProjRing(d, 4, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer ring.Close()
		if err := ring.LoadRows(hostStack(4, 2, 6), geometry.RowRange{Lo: 0, Hi: 2}); err != nil {
			t.Fatal(err)
		}
		ring.Release(1)
		ring.Reset()
	}
	first := New("first", 0, 1)
	first.recordH2D(1000, 1) // before the link: the device's alone
	first.SetTelemetry(reg)
	work(first)
	if l := first.Snapshot(); l.H2DBytes != 1000+100+2*4*2*4 || l.H2DOps != 4 {
		t.Fatalf("linking disturbed the device's own view: %+v", l)
	}
	second := New("second", 0, 1)
	second.SetTelemetry(reg)
	work(second)

	l := second.Snapshot()
	want := map[string]int64{
		"device.h2d_bytes":         l.H2DBytes,
		"device.d2h_bytes":         l.D2HBytes,
		"device.h2d_ops":           l.H2DOps,
		"device.d2h_ops":           l.D2HOps,
		"kernel.launches":          l.KernelLaunches,
		"kernel.voxel_updates":     l.VoxelUpdates,
		"kernel.interior_samples":  l.InteriorSamples,
		"kernel.border_samples":    l.BorderSamples,
		"kernel.skipped_samples":   l.SkippedSamples,
		"kernel.dispatch.scalar":   l.Dispatched[ArithmeticScalar],
		"device.ring.load_rows":    2,
		"device.ring.load_ops":     1,
		"device.ring.evicted_rows": 2,
		"device.ring.resets":       1,
	}
	got := reg.Snapshot().Counters
	for name, one := range want {
		if one == 0 {
			t.Errorf("%s: the work left the second device's view at zero", name)
		}
		if got[name] != 2*one {
			t.Errorf("%s = %d in the registry, want %d from each of two devices", name, got[name], one)
		}
	}
	for _, name := range []string{"kernel.dispatch.avx2", "device.ring.load_ns"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%s missing from the registry", name)
		}
	}
	if l.H2DBytes != 100+2*4*2*4 {
		t.Errorf("second device's H2DBytes = %d: its view did not start at zero", l.H2DBytes)
	}
}

func TestLedgerArithmetic(t *testing.T) {
	d := New("test", 0, 2)
	if got := d.Snapshot().Arithmetic(); got != "" {
		t.Fatalf("idle device dispatched %q", got)
	}
	d.RecordDispatch(ArithmeticAVX2)
	d.RecordDispatch(ArithmeticAVX2)
	first := d.Snapshot()
	if got := first.Arithmetic(); got != "avx2" || first.Dispatched[ArithmeticAVX2] != 2 {
		t.Fatalf("after two AVX2 launches: %q, %v", got, first.Dispatched)
	}
	d.RecordDispatch(ArithmeticScalar)
	l := d.Snapshot()
	if got := l.Arithmetic(); got != "avx2+scalar" {
		t.Fatalf("mixed launches named %q", got)
	}
	if got := l.Sub(first).Arithmetic(); got != "scalar" {
		t.Fatalf("Sub keeps %q", got)
	}
	if got := numArithmetics.String(); got != "arithmetic(3)" {
		t.Fatalf("an unknown Arithmetic is spelled %q", got)
	}
}

// hostStack builds a full-detector stack with encoded values.
func hostStack(nu, np, nv int) *projection.Stack {
	s, _ := projection.NewStack(nu, np, nv)
	for v := 0; v < nv; v++ {
		for p := 0; p < np; p++ {
			for u := 0; u < nu; u++ {
				s.Set(v, p, u, float32(v*10000+p*100+u))
			}
		}
	}
	return s
}

func TestRingBasicLoadAndRead(t *testing.T) {
	d := New("test", 0, 1)
	host := hostStack(4, 3, 32)
	r, err := NewProjRing(d, 4, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadRows(host, geometry.RowRange{Lo: 2, Hi: 8}); err != nil {
		t.Fatal(err)
	}
	if r.Valid() != (geometry.RowRange{Lo: 2, Hi: 8}) {
		t.Fatalf("valid = %v", r.Valid())
	}
	row, err := r.Row(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row[2] != float32(5*10000+1*100+2) {
		t.Fatalf("row content wrong: %v", row)
	}
	if _, err := r.Row(1, 0); err == nil {
		t.Error("expected not-resident error")
	}
	if _, err := r.Row(5, 9); err == nil {
		t.Error("expected projection bounds error")
	}
	l := d.Snapshot()
	if l.H2DBytes != int64(6*3*4*4) || l.H2DOps != 1 {
		t.Fatalf("ledger after load: %+v", l)
	}
}

func TestRingDifferentialAndWrap(t *testing.T) {
	d := New("test", 0, 1)
	host := hostStack(2, 2, 64)
	r, err := NewProjRing(d, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Slab schedule: ranges [0,6) → [4,10) → [8,14); differentials
	// [0,6), [6,10), [10,14). The second load wraps (slots 6,7,0,1).
	if err := r.LoadRows(host, geometry.RowRange{Lo: 0, Hi: 6}); err != nil {
		t.Fatal(err)
	}
	r.Release(4)
	pre := d.Snapshot()
	if err := r.LoadRows(host, geometry.RowRange{Lo: 6, Hi: 10}); err != nil {
		t.Fatal(err)
	}
	if ops := d.Snapshot().Sub(pre).H2DOps; ops != 2 {
		t.Fatalf("wrapping load recorded %d ops, want 2 (split copy)", ops)
	}
	r.Release(8)
	if err := r.LoadRows(host, geometry.RowRange{Lo: 10, Hi: 14}); err != nil {
		t.Fatal(err)
	}
	// All rows of the final slab range must be resident and correct.
	for v := 8; v < 14; v++ {
		for p := 0; p < 2; p++ {
			row, err := r.Row(v, p)
			if err != nil {
				t.Fatalf("row %d: %v", v, err)
			}
			if row[1] != float32(v*10000+p*100+1) {
				t.Fatalf("row %d projection %d corrupted: %v", v, p, row)
			}
		}
	}
	// Total H2D bytes = 14 rows exactly once.
	if got := d.Snapshot().H2DBytes; got != int64(14*2*2*4) {
		t.Fatalf("total H2D bytes %d, want each row shipped once (%d)", got, 14*2*2*4)
	}
}

func TestRingRejectsScheduleBugs(t *testing.T) {
	d := New("test", 0, 1)
	host := hostStack(2, 2, 64)
	r, _ := NewProjRing(d, 2, 2, 8)
	if err := r.LoadRows(host, geometry.RowRange{Lo: 0, Hi: 6}); err != nil {
		t.Fatal(err)
	}
	// Overlapping load without Release.
	if err := r.LoadRows(host, geometry.RowRange{Lo: 4, Hi: 8}); err == nil {
		t.Error("expected overlap error")
	}
	// Gap.
	if err := r.LoadRows(host, geometry.RowRange{Lo: 8, Hi: 10}); err == nil {
		t.Error("expected gap error")
	}
	// Exceeding depth without Release.
	if err := r.LoadRows(host, geometry.RowRange{Lo: 6, Hi: 12}); err == nil {
		t.Error("expected depth error")
	}
	// Wrong host stack shape.
	wrong := hostStack(3, 2, 64)
	if err := r.LoadRows(wrong, geometry.RowRange{Lo: 6, Hi: 7}); err == nil {
		t.Error("expected stack shape error")
	}
	// Rows not present in the host stack.
	partial, _ := host.ExtractRows(geometry.RowRange{Lo: 0, Hi: 4})
	if err := r.LoadRows(partial, geometry.RowRange{Lo: 6, Hi: 8}); err == nil {
		t.Error("expected missing-rows error")
	}
	// Empty load is a no-op.
	if err := r.LoadRows(host, geometry.RowRange{}); err != nil {
		t.Errorf("empty load: %v", err)
	}
}

// The ring's budget is its allocation: h+1 slots (the last is the zero slot)
// of np runs of nu+2 floats (two apron floats per run), two more to close
// the last apron and the slack a WindowFloats-float window needs past it.
func TestRingChargesDeviceMemory(t *testing.T) {
	d := New("small", 1000, 1)
	if _, err := NewProjRing(d, 10, 10, 10); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM for a 5348-byte ring on 1000-byte device, got %v", err)
	}
	const want = ((2+1)*5*(5+2) + 2 + WindowFloats - 2) * 4 // 488 bytes for 200 of samples
	r, err := NewProjRing(d, 5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(r.RawData())) * 4; d.Allocated() != want || r.Bytes() != want || got != want {
		t.Fatalf("charged %d, Bytes() %d, holds %d bytes; want %d each", d.Allocated(), r.Bytes(), got, want)
	}
	r.Close()
	if d.Allocated() != 0 {
		t.Fatalf("Close did not free memory: %d", d.Allocated())
	}
	r.Close() // idempotent
	tight := New("tight", want-1, 1)
	if _, err := NewProjRing(tight, 5, 5, 2); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("a budget one byte short of the allocation admitted the ring: %v", err)
	}
}

func TestNewProjRingValidation(t *testing.T) {
	d := New("test", 0, 1)
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := NewProjRing(d, dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("dims %v: expected error", dims)
		}
	}
}

// Long streaming schedule: walk a realistic slab sequence from geometry,
// loading only differentials, and verify every required row is readable
// with the right contents at every step — the end-to-end ring invariant.
func TestRingStreamingSchedule(t *testing.T) {
	sys := &geometry.System{
		DSO: 250, DSD: 350,
		NU: 8, NV: 96, DU: 0.5, DV: 0.5,
		NP: 4,
		NX: 48, NY: 48, NZ: 64, DX: 0.4, DY: 0.4, DZ: 0.4,
	}
	ranges := sys.SlabRows(8)
	// Ring depth: maximum slab extent (what the planner would choose).
	h := 0
	for _, r := range ranges {
		if r.Len() > h {
			h = r.Len()
		}
	}
	d := New("test", 0, 1)
	host := hostStack(sys.NU, sys.NP, sys.NV)
	ring, err := NewProjRing(d, sys.NU, sys.NP, h)
	if err != nil {
		t.Fatal(err)
	}
	prev := geometry.RowRange{}
	for i, need := range ranges {
		ring.Release(need.Lo)
		diff := geometry.DifferentialRows(prev, need)
		if err := ring.LoadRows(host, diff); err != nil {
			t.Fatalf("slab %d: %v", i, err)
		}
		for v := need.Lo; v < need.Hi; v++ {
			row, err := ring.Row(v, i%sys.NP)
			if err != nil {
				t.Fatalf("slab %d row %d: %v", i, v, err)
			}
			if row[3] != float32(v*10000+(i%sys.NP)*100+3) {
				t.Fatalf("slab %d row %d corrupted", i, v)
			}
		}
		prev = need
	}
	// Every row in the union crossed the link exactly once.
	union := geometry.RowRange{}
	for _, r := range ranges {
		union = union.Union(r)
	}
	rowBytes := int64(sys.NU) * int64(sys.NP) * 4
	if got := d.Snapshot().H2DBytes; got != rowBytes*int64(union.Len()) {
		t.Fatalf("H2D bytes %d, want %d (each row once)", got, rowBytes*int64(union.Len()))
	}
}
