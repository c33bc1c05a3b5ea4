package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("hello %d", 42)
	out := tb.Render()
	for _, want := range []string{"== demo ==", "333", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[int64]string{
		5:       "5 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if got := fmtSeconds(0.002); got != "2.0 ms" {
		t.Errorf("fmtSeconds = %q", got)
	}
	if got := fmtSeconds(2.5); got != "2.5 s" {
		t.Errorf("fmtSeconds = %q", got)
	}
	if got := fmtSeconds(120); got != "120 s" {
		t.Errorf("fmtSeconds = %q", got)
	}
	if got := fmtSeconds(5e-6); got != "5 µs" {
		t.Errorf("fmtSeconds = %q", got)
	}
}

func TestBuildScenario(t *testing.T) {
	sc, err := BuildScenario("tomo_00030", 16, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sys.NX != 32 || sc.Stack.NP != sc.Sys.NP {
		t.Fatalf("scenario inconsistent: %+v", sc.Sys)
	}
	var nonZero int
	for _, x := range sc.Stack.Data {
		if x != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("forward projections are all zero")
	}
	if _, err := BuildScenario("nope", 16, 32, 2); err == nil {
		t.Fatal("expected unknown-dataset error")
	}
}

func TestRegistryNamesAndUnknown(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, want := range []string{"table2", "table5", "fig8", "fig13", "quality", "ablations"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %s", want)
		}
	}
	if _, err := Run("nonsense", RunOptions{}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

// Fast simulation-only experiments run in full.
func TestSimulatedExperiments(t *testing.T) {
	for _, name := range []string{"table4", "fig13", "fig14", "fig15"} {
		tables, err := Run(name, RunOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table %q", name, tb.Title)
			}
			if out := tb.Render(); len(out) == 0 {
				t.Fatalf("%s: empty render", name)
			}
		}
	}
}

// Figure 13 must show the paper's strong-scaling shape: monotone speedup
// that flattens at high GPU counts.
func TestFig13Shape(t *testing.T) {
	tb, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	// Collect the coffee-bean series speedups.
	var speedups []float64
	for _, r := range tb.Rows {
		if r[0] != "coffee-bean" {
			continue
		}
		s, err := strconv.ParseFloat(strings.TrimSuffix(r[5], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, s)
	}
	if len(speedups) < 5 {
		t.Fatalf("too few points: %v", speedups)
	}
	for i := 1; i < len(speedups); i++ {
		if speedups[i] <= speedups[i-1] {
			t.Fatalf("speedup not monotone: %v", speedups)
		}
	}
	final := speedups[len(speedups)-1]
	ideal := float64(int(1) << (len(speedups) - 1))
	if final < ideal*0.2 || final >= ideal {
		t.Fatalf("final speedup %.1f vs ideal %.0f: outside the flattening regime", final, ideal)
	}
}

func TestTable2Measured(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution experiment")
	}
	tb, err := Table2(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Table 2 has %d rows, want 3 schemes", len(tb.Rows))
	}
	// Rows: this work, the volume-resident baseline, the 4-chunk baseline.
	// Columns 2–4: H2D total, reduce total, msgs/rank.
	col := func(r, c int) float64 {
		t.Helper()
		f := strings.Fields(tb.Rows[r][c])
		x, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatalf("row %d column %d: %v", r, c, err)
		}
		if len(f) > 1 {
			x *= map[string]float64{"B": 1, "KiB": 1 << 10, "MiB": 1 << 20}[f[1]]
		}
		return x
	}
	// The printed figures carry three significant digits.
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.01*want }
	if h1, h4 := col(1, 2), col(2, 2); !near(h4, 4*h1) {
		t.Errorf("4-chunk baseline H2D %.0f B, want 4× the volume-resident %.0f B", h4, h1)
	}
	for r := 1; r <= 2; r++ {
		if ours, base := col(0, 3), col(r, 3); !near(base, 3*ours) {
			t.Errorf("row %d reduce %.0f B, want 3× this work's %.0f B", r, base, ours)
		}
		if ours, base := col(0, 4), col(r, 4); ours >= base {
			t.Errorf("this work sends %.1f msgs/rank, not fewer than row %d's %.1f", ours, r, base)
		}
	}
}

func TestFig8ProducesSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution experiment")
	}
	dir := t.TempDir()
	tb, err := Fig8(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := tb.Rows[0][1]
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 64*64 {
		t.Fatalf("slice file too small: %d bytes", info.Size())
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("artifact written outside OutDir: %s", path)
	}
}

func TestQualityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution experiment")
	}
	tb, err := Quality(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r[3] != "pass" {
			t.Fatalf("dataset %s failed the 1e-5 equivalence criterion: %v", r[0], r)
		}
	}
}

func TestAblationDifferentialSavesTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution experiment")
	}
	tb, err := AblationDifferential(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %v", tb.Rows)
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "max |Δ| = 0") {
		t.Fatalf("expected identical outputs note, got %v", tb.Notes)
	}
}
