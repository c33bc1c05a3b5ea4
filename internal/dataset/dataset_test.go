package dataset

import (
	"fmt"
	"math"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := registered()
	if len(all) != 6 {
		t.Fatalf("registry has %d datasets, want the paper's 6", len(all))
	}
	names := map[string]bool{}
	for _, d := range all {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		names[d.Name] = true
		if d.Phantom == nil || d.Phantom() == nil {
			t.Fatalf("%s has no phantom", d.Name)
		}
		if d.FOV <= 0 {
			t.Fatalf("%s has no FOV", d.Name)
		}
	}
	for _, want := range []string{"coffee-bean", "bumblebee", "tomo_00027", "tomo_00028", "tomo_00029", "tomo_00030"} {
		if !names[want] {
			t.Fatalf("missing dataset %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("bumblebee")
	if err != nil || d.Name != "bumblebee" {
		t.Fatalf("ByName: %v %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected unknown-dataset error")
	}
}

// checkMagnification validates a published magnification factor to one
// decimal.
func checkMagnification(d *Dataset, want float64) error {
	if math.Abs(d.Magnification()-want) > 0.06 {
		return fmt.Errorf("dataset %s: magnification %.3f, want %.2f", d.Name, d.Magnification(), want)
	}
	return nil
}

// The published magnification factors must hold (Section 6.1).
func TestMagnifications(t *testing.T) {
	if err := checkMagnification(CoffeeBean(), 9.48); err != nil {
		t.Error(err)
	}
	if err := checkMagnification(Bumblebee(), 16.9); err != nil {
		t.Error(err)
	}
	if err := checkMagnification(tomo00030(), 1.4); err != nil {
		t.Error(err)
	}
	if err := checkMagnification(tomo00030(), 5.0); err == nil {
		t.Error("expected mismatch error")
	}
}

// Table 4 corrections must be wired into the registry.
func TestTable4Corrections(t *testing.T) {
	cases := []struct {
		name         string
		su, sv, scor float64
	}{
		{"tomo_00027", 25, 0.25, 0},
		{"tomo_00028", 26, 0.25, 0},
		{"tomo_00029", 27, 0.2, 0},
		{"tomo_00030", -10, 0.2, 0},
		{"coffee-bean", 0, 0, -0.0021},
		{"bumblebee", 0, 0, 1.03},
	}
	for _, tc := range cases {
		d, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if d.SigmaU != tc.su || d.SigmaV != tc.sv || d.SigmaCOR != tc.scor {
			t.Errorf("%s corrections (%g,%g,%g), want (%g,%g,%g)",
				tc.name, d.SigmaU, d.SigmaV, d.SigmaCOR, tc.su, tc.sv, tc.scor)
		}
	}
}

// Every dataset must yield a valid geometry at the paper's output sizes.
func TestSystemsValidate(t *testing.T) {
	for _, d := range registered() {
		for _, n := range []int{512, 2048, 4096} {
			sys, err := d.System(n)
			if err != nil {
				t.Fatalf("%s at %d³: %v", d.Name, n, err)
			}
			if sys.NX != n || sys.DX <= 0 {
				t.Fatalf("%s at %d³: bad grid", d.Name, n)
			}
		}
	}
	if _, err := CoffeeBean().System(0); err == nil {
		t.Error("expected output-size error")
	}
}

// The coffee bean input is the paper's headline "more than 177 GB".
func TestCoffeeBeanInputSize(t *testing.T) {
	gb := float64(CoffeeBean().InputBytes()) / (1 << 30)
	if gb < 170 || gb > 200 {
		t.Fatalf("coffee bean input %.1f GiB, want ≈177+", gb)
	}
	// tomo_00029: 17.9 GB; tomo_00030: 816 MB (Table 5).
	if gb29 := float64(Tomo00029().InputBytes()) / 1e9; math.Abs(gb29-19.3) > 1.5 {
		t.Fatalf("tomo_00029 input %.1f GB, want ≈17.9-19.3", gb29)
	}
	if mb30 := float64(tomo00030().InputBytes()) / 1e6; math.Abs(mb30-856) > 60 {
		t.Fatalf("tomo_00030 input %.0f MB, want ≈816-856", mb30)
	}
}

// Scaled twins keep the magnification and detector coverage while being
// small enough for real execution.
func TestScaledTwins(t *testing.T) {
	for _, d := range registered() {
		s, err := d.Scaled(32)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.Magnification()-d.Magnification()) > 1e-9 {
			t.Fatalf("%s: scaling changed magnification", d.Name)
		}
		// Physical detector extent preserved within a pixel or two.
		if f, g := float64(s.NU)*s.DU, float64(d.NU)*d.DU; math.Abs(f-g)/g > 0.02 {
			t.Fatalf("%s: detector width %.3f vs %.3f", d.Name, f, g)
		}
		if s.NP%8 != 0 {
			t.Fatalf("%s: scaled NP=%d not divisible by 8", d.Name, s.NP)
		}
		if _, err := s.System(32); err != nil {
			t.Fatalf("%s scaled system: %v", d.Name, err)
		}
	}
	if _, err := CoffeeBean().Scaled(0); err == nil {
		t.Error("expected divisor error")
	}
}

// The 2x rebinning keeps the physical detector extent and magnification
// (the paper's "Coffee bean 2x" panel of Figure 13).
func TestRebin2x(t *testing.T) {
	d := CoffeeBean()
	r := d.Rebin2x()
	if r.Name != "coffee-bean-2x" {
		t.Fatalf("name %q", r.Name)
	}
	if r.NU != d.NU/2 || r.NV != d.NV/2 || r.DU != 2*d.DU {
		t.Fatalf("rebinned geometry wrong: %+v", r)
	}
	if got, want := float64(r.NU)*r.DU, float64(d.NU)*d.DU; got != want {
		t.Fatalf("detector extent changed: %g vs %g", got, want)
	}
	if r.Magnification() != d.Magnification() {
		t.Fatal("magnification changed")
	}
	if r.InputBytes()*4 != d.InputBytes() {
		t.Fatalf("input not quartered: %d vs %d", r.InputBytes(), d.InputBytes())
	}
	if _, err := r.System(512); err != nil {
		t.Fatalf("rebinned system invalid: %v", err)
	}
}

func TestBeerCalibration(t *testing.T) {
	b := Tomo00029().Beer()
	if b.Dark != 100 || b.Blank != 65536 {
		t.Fatalf("beer calibration %+v", b)
	}
	if err := b.Validate(0); err != nil {
		t.Fatal(err)
	}
}
