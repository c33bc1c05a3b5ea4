package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"distfdk/internal/cpufeat"
)

// provenance says what produced a results file: the code, the toolchain,
// the machine, and the run's settings. Problem dimensions, bytes and the
// command line are per workload, beside the numbers they explain.
type provenance struct {
	Commit      string           `json:"commit"`
	GoVersion   string           `json:"go_version"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	CPUModel    string           `json:"cpu_model"`
	AVX2        bool             `json:"avx2"`
	PeakProbe   string           `json:"peak_probe"`
	NumCPU      int              `json:"nproc"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	CacheBytes  map[string]int64 `json:"cache_bytes"`
	TriadBytes  int64            `json:"triad_bytes"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds_per_workload"`
	MinReps     int              `json:"min_reps"`
	SetupRounds int              `json:"setup_rounds"`
	CalibRefS   float64          `json:"calib_ref_s"`
	Smoke       bool             `json:"smoke"`
	Time        string           `json:"time"`
}

func newProvenance(root string, cfg config) provenance {
	caches, llc := cacheSizes()
	return provenance{
		Commit:      gitCommit(root),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
		AVX2:        cpufeat.AVX2(),
		PeakProbe:   peakKind(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CacheBytes:  caches,
		TriadBytes:  12 * int64(triadElems(llc, cfg.triadCap)),
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		MinReps:     cfg.minReps,
		SetupRounds: cfg.setupRounds,
		CalibRefS:   calibRefS,
		Smoke:       cfg.smoke,
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit is the checked-out commit, "unknown" outside a git checkout
// (the driver's copy is not one).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
