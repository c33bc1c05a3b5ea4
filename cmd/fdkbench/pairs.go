package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// pairsTable summarises a `make bench-pairs` directory: base.jsonl and
// head.jsonl, one benchmark driver line per invocation, line i of each file
// one pair (the two invocations ran back to back). Per metric it prints
// each arm's median and quartiles, the median's change, whether that change
// is larger than the base arm's interquartile range, in how many pairs the
// head read better, and a verdict (pairVerdict). Which way is better is the
// metric's `better` in the benchmark declaration at spec (BENCHMARK.json),
// which it only reads. When the directory keeps the invocations'
// results.json files (<arm>-<i>.results.json), it ends with each arm's
// median calibration loop and median raw wall time over all their reps.
func pairsTable(w io.Writer, dir, spec string) error {
	better, err := metricDirections(spec)
	if err != nil {
		return err
	}
	base, err := readDriverLines(filepath.Join(dir, "base.jsonl"))
	if err != nil {
		return err
	}
	head, err := readDriverLines(filepath.Join(dir, "head.jsonl"))
	if err != nil {
		return err
	}
	n := min(len(base), len(head))
	if n == 0 {
		return fmt.Errorf("%s: no complete pair", dir)
	}
	var names []string
	for name := range base[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d pairs from %s (base first in the odd pairs)\n\n", n, dir)
	fmt.Fprintln(w, "| metric | unit | better | base q1 / median / q3 | head q1 / median / q3 | median Δ | beyond base IQR | head better in | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, name := range names {
		dirn := better[name]
		var b, h []float64
		wins, losses := 0, 0
		for i := range n {
			bm, okb := base[i].Metrics[name]
			hm, okh := head[i].Metrics[name]
			if !okb || !okh {
				continue
			}
			b, h = append(b, bm.Value), append(h, hm.Value)
			switch gain := improvement(dirn, hm.Value-bm.Value); {
			case gain > 0:
				wins++
			case gain < 0:
				losses++
			}
		}
		if len(b) == 0 {
			continue
		}
		bq1, bmed, bq3 := summary(b)
		hq1, hmed, hq3 := summary(h)
		delta := "—"
		if bmed != 0 {
			delta = fmt.Sprintf("%+.2f %%", 100*(hmed-bmed)/math.Abs(bmed))
		}
		beyond := math.Abs(hmed-bmed) > bq3-bq1
		beyondText, betterIn := "no", "—"
		if beyond {
			beyondText = "yes"
		}
		if dirn != "" {
			betterIn = fmt.Sprintf("%d of %d", wins, len(b))
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %s | %s | %s | %s |\n",
			name, base[0].Metrics[name].Unit, cmp.Or(dirn, "—"), bq1, bmed, bq3, hq1, hmed, hq3, delta, beyondText, betterIn,
			pairVerdict(dirn, improvement(dirn, hmed-bmed), beyond, wins, losses, len(b)))
	}
	for arm, lines := range map[string][]driverLine{"base": base, "head": head} {
		for i, l := range lines[:n] {
			if !l.Correct || l.Failed > 0 {
				fmt.Fprintf(w, "\n%s pair %d: %d of %d operations failed\n", arm, i+1, l.Failed, l.Attempted)
			}
		}
	}
	return calibrationSummary(w, dir)
}

// improvement signs a change by the metric's direction: positive when the
// change is for the better, negative when for the worse, 0 when there is
// no change or no declared direction.
func improvement(better string, change float64) float64 {
	switch better {
	case "lower":
		return -change
	case "higher":
		return change
	}
	return 0
}

// pairVerdict judges one metric over pairs pairs: improved when the head
// is better in at least nine tenths of them (ties count for neither) and
// the medians differ, for the better, by more than the base arm's
// interquartile range (beyond); regressed when the same holds for the
// worse; unchanged when neither arm wins nine tenths and the medians lie
// within that range; unresolved otherwise — the runs disagree with
// themselves. gain is the median's change signed by improvement.
func pairVerdict(better string, gain float64, beyond bool, wins, losses, pairs int) string {
	if better == "" {
		return "—"
	}
	most := func(k int) bool { return 10*k >= 9*pairs }
	switch {
	case beyond && gain > 0 && most(wins):
		return "improved"
	case beyond && gain < 0 && most(losses):
		return "regressed"
	case !beyond && !most(wins) && !most(losses):
		return "unchanged"
	}
	return "unresolved"
}

// metricDirections reads each declared metric's better direction ("lower"
// or "higher") from the benchmark declaration.
func metricDirections(spec string) (map[string]string, error) {
	raw, err := os.ReadFile(spec)
	if err != nil {
		return nil, fmt.Errorf("the benchmark declaration (run from the module root): %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", spec, err)
	}
	better := map[string]string{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better, nil
}

// calibrationSummary prints, when dir keeps the invocations' results.json
// files, each arm's median calibration loop and median raw (unnormalised)
// wall time over every timed rep: the benchmark scales each rep by the loop
// timed right after it, so a change that moves the loop moves every
// normalised metric with it.
func calibrationSummary(w io.Writer, dir string) error {
	var lines []string
	for _, arm := range []string{"base", "head"} {
		files, err := filepath.Glob(filepath.Join(dir, arm+"-*.results.json"))
		if err != nil || len(files) == 0 {
			return err
		}
		var calib, wall []float64
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			var res struct {
				Workloads []struct {
					Reps []struct {
						WallS  float64 `json:"wall_s"`
						CalibS float64 `json:"calib_s"`
					} `json:"reps"`
				} `json:"workloads"`
			}
			if err := json.Unmarshal(raw, &res); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			for _, wl := range res.Workloads {
				for _, r := range wl.Reps {
					calib, wall = append(calib, r.CalibS), append(wall, r.WallS)
				}
			}
		}
		if len(calib) == 0 {
			return nil
		}
		_, cmed, _ := summary(calib)
		_, wmed, _ := summary(wall)
		lines = append(lines, fmt.Sprintf("%s: calibration loop %.4g ms, raw wall %.4g s (medians over %d reps of %d invocations)",
			arm, 1e3*cmed, wmed, len(calib), len(files)))
	}
	fmt.Fprintln(w)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	return nil
}

// driverLine is the last line the benchmark prints for one workload.
type driverLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readDriverLines(path string) ([]driverLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []driverLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l driverLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, len(lines)+1, err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// summary returns the quartiles and the median of xs by the benchmark's own
// method (Python's statistics.quantiles, method "exclusive").
func summary(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = s[m/2]
	if m%2 == 0 {
		med = (s[m/2-1] + s[m/2]) / 2
	}
	return cut(1), med, cut(3)
}
