package main

import (
	"bufio"
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
// is larger than the base arm's interquartile range, and in how many pairs
// the head read lower.
func pairsTable(w io.Writer, dir string) error {
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
	fmt.Fprintln(w, "| metric | unit | base q1 / median / q3 | head q1 / median / q3 | median Δ | beyond base IQR | head lower in |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, name := range names {
		var b, h []float64
		lower := 0
		for i := range n {
			bm, okb := base[i].Metrics[name]
			hm, okh := head[i].Metrics[name]
			if !okb || !okh {
				continue
			}
			b, h = append(b, bm.Value), append(h, hm.Value)
			if hm.Value < bm.Value {
				lower++
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
		beyond := "no"
		if math.Abs(hmed-bmed) > bq3-bq1 {
			beyond = "yes"
		}
		fmt.Fprintf(w, "| `%s` | %s | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %s | %s | %d of %d |\n",
			name, base[0].Metrics[name].Unit, bq1, bmed, bq3, hq1, hmed, hq3, delta, beyond, lower, len(b))
	}
	for arm, lines := range map[string][]driverLine{"base": base, "head": head} {
		for i, l := range lines[:n] {
			if !l.Correct || l.Failed > 0 {
				fmt.Fprintf(w, "\n%s pair %d: %d of %d operations failed\n", arm, i+1, l.Failed, l.Attempted)
			}
		}
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
