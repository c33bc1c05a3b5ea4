package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distfdk/internal/cpufeat"
)

func testConfig() Config {
	return Config{NU: 64, NV: 32, DU: 0.5, DV: 0.5, DSD: 350, Window: RamLak, Scale: 1}
}

func TestWindowNames(t *testing.T) {
	for _, w := range []Window{RamLak, SheppLogan, Cosine, Hamming, Hann} {
		got, err := ParseWindow(w.String())
		if err != nil || got != w {
			t.Errorf("ParseWindow(%q) = %v, %v", w.String(), got, err)
		}
	}
	if _, err := ParseWindow("boxcar"); err == nil {
		t.Error("expected error for unknown window")
	}
	if w, err := ParseWindow(""); err != nil || w != RamLak {
		t.Errorf("empty window name should default to ram-lak, got %v, %v", w, err)
	}
}

func TestWindowGains(t *testing.T) {
	for _, w := range []Window{RamLak, SheppLogan, Cosine, Hamming, Hann} {
		if g := w.gain(0); math.Abs(g-dcGain(w)) > 1e-12 {
			t.Errorf("%v gain(0) = %g", w, g)
		}
		for _, fn := range []float64{0, 0.25, 0.5, 0.75, 1} {
			g := w.gain(fn)
			if g < 0 || g > 1+1e-12 {
				t.Errorf("%v gain(%g) = %g outside [0,1]", w, fn, g)
			}
		}
	}
	// Apodising windows must attenuate at Nyquist relative to Ram-Lak.
	for _, w := range []Window{Cosine, Hann} {
		if g := w.gain(1); g > 1e-9 {
			t.Errorf("%v gain at Nyquist = %g, want ~0", w, g)
		}
	}
	if g := Hamming.gain(1); math.Abs(g-0.08) > 1e-12 {
		t.Errorf("Hamming Nyquist gain = %g, want 0.08", g)
	}
}

func dcGain(w Window) float64 { return 1 }

// The windowed-ramp frequency response must track the physical ramp |f| in
// mid-band: with the Δu quadrature weight folded in, the discrete operator's
// gain at bin k is the frequency in cycles/mm, H[k] ≈ k/(N·Δu).
func TestRampResponseTracksRamp(t *testing.T) {
	const n = 512
	const du = 0.7
	resp, err := rampResponse(n, du, RamLak, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 8; k <= n/2; k += 16 {
		want := float64(k) / (float64(n) * du)
		if rel := math.Abs(resp[k]-want) / want; rel > 0.02 {
			t.Fatalf("bin %d: response %g, want %g (rel err %.3f)", k, resp[k], want, rel)
		}
		// Hermitian symmetry of a real even kernel.
		if math.Abs(resp[k]-resp[n-k]) > 1e-9 {
			t.Fatalf("bin %d: response not symmetric: %g vs %g", k, resp[k], resp[n-k])
		}
	}
	// The band-limited kernel has a small positive DC gain that vanishes
	// as n grows; it must stay far below the first harmonic.
	if resp[0] < 0 || resp[0] > resp[1] {
		t.Fatalf("DC gain %g outside (0, H[1]=%g)", resp[0], resp[1])
	}
}

func TestRampResponseScaleAndWindow(t *testing.T) {
	const n = 256
	base, _ := rampResponse(n, 0.5, RamLak, 1)
	scaled, _ := rampResponse(n, 0.5, RamLak, 2.5)
	hann, _ := rampResponse(n, 0.5, Hann, 1)
	for k := 0; k < n; k++ {
		if math.Abs(scaled[k]-2.5*base[k]) > 1e-12 {
			t.Fatalf("bin %d: scale not linear", k)
		}
		f := k
		if f > n/2 {
			f = n - f
		}
		want := base[k] * Hann.gain(float64(f)/float64(n/2))
		if math.Abs(hann[k]-want) > 1e-12 {
			t.Fatalf("bin %d: hann response %g, want %g", k, hann[k], want)
		}
	}
}

func TestRampResponseErrors(t *testing.T) {
	if _, err := rampResponse(100, 0.5, RamLak, 1); err == nil {
		t.Error("expected error for non-power-of-two length")
	}
	if _, err := rampResponse(128, 0, RamLak, 1); err == nil {
		t.Error("expected error for zero pitch")
	}
}

func TestNewFDKValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.NU = 0 },
		func(c *Config) { c.NV = -1 },
		func(c *Config) { c.DU = 0 },
		func(c *Config) { c.DV = 0 },
		func(c *Config) { c.DSD = 0 },
	}
	for i, mut := range mutations {
		cfg := testConfig()
		mut(&cfg)
		if _, err := NewFDK(cfg); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

// The cosine weight at the (offset-corrected) principal point is exactly 1
// and decays with detector distance per Equation 2.
func TestCosineWeights(t *testing.T) {
	cfg := testConfig()
	cfg.SigmaU, cfg.SigmaV = 1.5, -0.5
	f, err := NewFDK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cu := (float64(cfg.NU)-1)/2 + cfg.SigmaU
	cv := (float64(cfg.NV)-1)/2 + cfg.SigmaV
	for _, p := range [][2]int{{0, 0}, {10, 31}, {63, 16}, {32, 15}} {
		u, v := p[0], p[1]
		d2 := sq(cfg.DU*(float64(u)-cu)) + sq(cfg.DV*(float64(v)-cv))
		want := cfg.DSD / math.Sqrt(d2+cfg.DSD*cfg.DSD)
		got := float64(f.weights[v*cfg.NU+u])
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("weight(%d,%d) = %g, want %g", u, v, got, want)
		}
		if got > 1+1e-6 {
			t.Fatalf("weight(%d,%d) = %g exceeds 1", u, v, got)
		}
	}
	// Principal point sits at fractional pixel; nearest pixel weight ≈ 1.
	got := float64(f.weights[15*cfg.NU+33])
	if got < 0.999 {
		t.Fatalf("near-principal-point weight = %g, want ≈1", got)
	}
}

func sq(x float64) float64 { return x * x }

func TestFilterRowErrors(t *testing.T) {
	f, _ := NewFDK(testConfig())
	s := f.newScratch()
	if err := f.FilterRow(make([]float32, 10), 0, s); err == nil {
		t.Error("expected row-length error")
	}
	if err := f.FilterRow(make([]float32, 64), -1, s); err == nil {
		t.Error("expected row-index error")
	}
	if err := f.FilterRow(make([]float32, 64), 32, s); err == nil {
		t.Error("expected row-index error")
	}
}

// Ramp filtering must annihilate (nearly) constant rows: the DC gain of the
// band-limited ramp is orders of magnitude below mid-band.
func TestFilterRowKillsDC(t *testing.T) {
	f, _ := NewFDK(testConfig())
	s := f.newScratch()
	row := make([]float32, 64)
	for i := range row {
		row[i] = 1
	}
	// Use the centre row where cosine weights are ~flat.
	if err := f.FilterRow(row, 16, s); err != nil {
		t.Fatal(err)
	}
	var maxAbs float64
	for _, x := range row[16:48] { // interior, away from truncation edges
		maxAbs = math.Max(maxAbs, math.Abs(float64(x)))
	}
	if maxAbs > 0.05 {
		t.Fatalf("interior response to DC = %g, want ≈0", maxAbs)
	}
}

// An impulse through the filter must produce the ramp kernel shape: a
// positive peak with negative side lobes decaying as 1/n².
func TestFilterRowImpulseShape(t *testing.T) {
	cfg := testConfig()
	f, _ := NewFDK(cfg)
	s := f.newScratch()
	row := make([]float32, cfg.NU)
	const at = 32
	row[at] = 1
	if err := f.FilterRow(row, 16, s); err != nil {
		t.Fatal(err)
	}
	if row[at] <= 0 {
		t.Fatalf("peak %g, want positive", row[at])
	}
	if row[at-1] >= 0 || row[at+1] >= 0 {
		t.Fatalf("odd neighbours %g,%g, want negative", row[at-1], row[at+1])
	}
	if math.Abs(float64(row[at-1]-row[at+1])) > 1e-4 {
		t.Fatalf("response not symmetric: %g vs %g", row[at-1], row[at+1])
	}
	if math.Abs(float64(row[at+2])) > math.Abs(float64(row[at+1])) {
		t.Fatalf("side lobes not decaying: |h2|=%g > |h1|=%g", row[at+2], row[at+1])
	}
}

// Property: filtering is linear in the row values.
func TestFilterRowLinearity(t *testing.T) {
	f, _ := NewFDK(testConfig())
	s := f.newScratch()
	prop := func(seed int64, a8 int8) bool {
		a := float32(a8) / 8
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, 64)
		y := make([]float32, 64)
		comb := make([]float32, 64)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
			comb[i] = a*x[i] + y[i]
		}
		if f.FilterRow(x, 5, s) != nil || f.FilterRow(y, 5, s) != nil || f.FilterRow(comb, 5, s) != nil {
			return false
		}
		for i := range comb {
			if math.Abs(float64(comb[i]-(a*x[i]+y[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterRowsParallelMatchesSerial(t *testing.T) {
	cfg := testConfig()
	f, _ := NewFDK(cfg)
	rng := rand.New(rand.NewSource(11))
	const rows = 40
	serial := make([]float32, rows*cfg.NU)
	for i := range serial {
		serial[i] = float32(rng.NormFloat64())
	}
	parallel := append([]float32(nil), serial...)
	vOf := func(i int) int { return i % cfg.NV }
	if err := f.FilterRows(serial, rows, vOf, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.FilterRows(parallel, rows, vOf, 4); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("value %d: serial %g != parallel %g", i, serial[i], parallel[i])
		}
	}
}

func TestFilterRowsErrors(t *testing.T) {
	f, _ := NewFDK(testConfig())
	if err := f.FilterRows(make([]float32, 63), 1, func(int) int { return 0 }, 1); err == nil {
		t.Error("expected buffer-size error")
	}
	if err := f.FilterRows(make([]float32, 2*64), 2, func(int) int { return 99 }, 2); err == nil {
		t.Error("expected propagated row-index error")
	}
}

func TestBeerRoundTrip(t *testing.T) {
	b := &Beer{Dark: 100, Blank: 65536}
	for _, p := range []float64{0, 0.1, 1, 3, 7} {
		data := []float32{float32(b.Counts(p))}
		if err := b.Apply(data); err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(data[0])-p) > 1e-4*(1+p) {
			t.Fatalf("round trip of %g gave %g", p, data[0])
		}
	}
	// A zero line integral skips the Exp: exp(−0) = 1 exactly.
	for _, z := range []float64{0, math.Copysign(0, -1)} {
		if got, want := b.Counts(z), b.Dark+float64((b.Blank-b.Dark)*math.Exp(-z)); got != want {
			t.Fatalf("Counts(%g) = %g, the Exp spelling gives %g", z, got, want)
		}
	}
}

func TestBeerClampsNonPhysicalCounts(t *testing.T) {
	b := &Beer{Dark: 10, Blank: 1000}
	data := []float32{5, 10, -3} // at or below dark level
	if err := b.Apply(data); err != nil {
		t.Fatal(err)
	}
	want := float32(-math.Log(1e-6))
	for i, v := range data {
		if v != want {
			t.Fatalf("sample %d = %g, want clamp value %g", i, v, want)
		}
		if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			t.Fatalf("sample %d is not finite", i)
		}
	}
}

func TestBeerPerPixelFrames(t *testing.T) {
	b := &Beer{
		DarkFrame:  []float32{0, 100},
		BlankFrame: []float32{1000, 1100},
	}
	data := []float32{float32(0 + 1000*math.Exp(-2)), float32(100 + 1000*math.Exp(-0.5))}
	if err := b.Apply(data); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(data[0])-2) > 1e-4 || math.Abs(float64(data[1])-0.5) > 1e-4 {
		t.Fatalf("per-pixel Beer gave %v, want [2 0.5]", data)
	}
}

func TestBeerValidation(t *testing.T) {
	if err := (&Beer{Dark: 10, Blank: 5}).Apply(make([]float32, 4)); err == nil {
		t.Error("expected blank<=dark error")
	}
	if err := (&Beer{DarkFrame: make([]float32, 3)}).Apply(make([]float32, 4)); err == nil {
		t.Error("expected dark-frame size error")
	}
	if err := (&Beer{BlankFrame: make([]float32, 5), Blank: 1}).Apply(make([]float32, 4)); err == nil {
		t.Error("expected blank-frame size error")
	}
}

// The repository benchmark's single-filter stack, 4 840 rows of 83 samples
// (55 detector rows of 88 projections), through FilterRows on one worker
// under each spelling this host has: the ZMM lanes, the YMM pairs with
// AVX-512 masked, the Go loops with AVX2 masked. rows/s is the rate behind
// filter.rows_per_s.p1; a pass on one worker must not allocate.
func BenchmarkFilterRows(b *testing.B) {
	const nu, nv, np = 83, 55, 88
	f, err := NewFDK(Config{NU: nu, NV: nv, DU: 0.6, DV: 0.6, DSD: 672.5, Window: RamLak, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := make([]float32, nu*nv*np)
	for i := range src {
		src[i] = float32(i % 13)
	}
	data := make([]float32, len(src))
	vOf := func(i int) int { return i / np }
	filter := func() error {
		copy(data, src)
		return f.FilterRows(data, nv*np, vOf, 1)
	}
	for _, sp := range []struct {
		name      string
		avx2, avx bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}} {
		b.Run(sp.name, func(b *testing.B) {
			if sp.avx && !cpufeat.AVX512() || sp.avx2 && !cpufeat.AVX2() {
				b.Skip("host lacks the spelling")
			}
			defer cpufeat.SetAVX512ForTest(sp.avx)()
			defer cpufeat.SetAVX2ForTest(sp.avx2)()
			if err := filter(); err != nil { // warms the scratch pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := filter(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(nv*np)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			if allocs := testing.AllocsPerRun(3, func() { _ = filter() }); allocs != 0 {
				b.Fatalf("FilterRows allocates %.0f times per pass", allocs)
			}
		})
	}
}
