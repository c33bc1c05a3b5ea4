package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"distfdk/internal/volume"
)

// repTimeout bounds one fdkrecon invocation, so a hung world fails the rep
// and the benchmark still ends inside its own time cap.
const repTimeout = 90 * time.Second

// buildCLI compiles cmd/fdkrecon into outDir. The time is reported as
// bench.build_s and kept out of setup_s: the state of the build cache is
// not a property of the code under test.
func buildCLI(root, outDir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(outDir, "fdkrecon")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fdkrecon")
	cmd.Dir = root
	t0 := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/fdkrecon: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// The end-to-end reps confine fdkrecon, and the workers a -world run
// spawns, to one CPU, where its defaults give it one thread per process.
// The guest has two cores of a shared host, and a run that needs both
// measures the neighbours (README, Protocol). The traced pass runs on every
// core.
const (
	oneCPU   = true
	everyCPU = false
)

// rep is the measurement of one fdkrecon invocation: exec to exit, the
// user+sys time of the process tree and its peak resident set (workers of
// a -world run are waited for by the coordinator, so both include them),
// and for a one-CPU run the calibration time of that CPU around it.
type rep struct {
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`
	RSSMiB float64 `json:"rss_mib"`
	Calib  float64 `json:"calib_s,omitempty"`
}

// execCLI runs fdkrecon once, in its own process group so a timeout also
// reaps the workers it spawned. It runs inside the launcher process.
func execCLI(bin string, args, env []string) (rep, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = env
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return rep{}, fmt.Errorf("fdkrecon %v: %v\n%s", args, err, tail(out.Bytes(), 600))
	}
	ps := cmd.ProcessState
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return rep{}, fmt.Errorf("fdkrecon: no rusage on this platform")
	}
	return rep{
		Wall:   wall,
		CPU:    (ps.UserTime() + ps.SystemTime()).Seconds(),
		RSSMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// shaFile returns the sha256 and the size of a file.
func shaFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	return hex.EncodeToString(h.Sum(nil)), n, err
}

// wlRun is the state of one workload inside one benchmark invocation.
type wlRun struct {
	w    workload
	seed int64
	cli  *launcher
	bin  string
	f    files
	dims dims
	ref  *volume.Volume // voxelised phantom

	setupS []float64
	// sha is the output of the verified warm-up run; every later output of
	// the workload must match it byte for byte.
	sha  string
	rmse float64

	reps      []rep
	attempted int
	failed    int
	failures  []string
}

// clean removes what a previous invocation left, so a missing output is
// detected and a failed run is never resumed from its journal.
func (r *wlRun) clean() {
	for _, p := range []string{r.f.out, r.f.out + ".partial", r.f.journal} {
		os.Remove(p)
	}
}

// invoke runs the workload's command line once from a clean directory.
func (r *wlRun) invoke(confine, inproc bool, extra ...string) (rep, error) {
	r.clean()
	return r.cli.run(r.bin, append(r.w.args(r.f, inproc), extra...), confine)
}

// verify checks the output on disk: complete, and byte-identical to the
// warm-up's.
func (r *wlRun) verify() error {
	sha, size, err := shaFile(r.f.out)
	if err != nil {
		return fmt.Errorf("missing output: %w", err)
	}
	if size != r.dims.OutBytes {
		return fmt.Errorf("short output: %d bytes, want %d", size, r.dims.OutBytes)
	}
	if sha != r.sha {
		return fmt.Errorf("output sha256 %.12s differs from the warm-up's %.12s", sha, r.sha)
	}
	return nil
}

// op counts one verified operation.
func (r *wlRun) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// record counts one timed rep; a failed one stays out of the medians.
func (r *wlRun) record(m rep, err error) {
	r.op(err)
	if err == nil {
		r.reps = append(r.reps, m)
	}
}

// warmUp is the untimed first run. It fixes the reference sha after
// checking the volume against the phantom, and for a -world workload also
// requires the in-process run of the same problem to give the same bytes.
func (r *wlRun) warmUp() error {
	if _, err := r.invoke(oneCPU, false); err != nil {
		return err
	}
	sha, size, err := shaFile(r.f.out)
	if err != nil {
		return err
	}
	if size != r.dims.OutBytes {
		return fmt.Errorf("%s: output is %d bytes, want %d", r.w.Name, size, r.dims.OutBytes)
	}
	vol, err := volume.LoadRaw(r.f.out)
	if err != nil {
		return err
	}
	st, err := volume.Compare(vol, r.ref)
	if err != nil {
		return err
	}
	if !(st.RMSE <= r.w.MaxRMSE) {
		return fmt.Errorf("%s: rmse %.6g above tolerance %g", r.w.Name, st.RMSE, r.w.MaxRMSE)
	}
	r.sha, r.rmse = sha, st.RMSE
	if r.w.World > 1 {
		if _, err := r.invoke(oneCPU, true); err != nil {
			return err
		}
		if err := r.verify(); err != nil {
			return fmt.Errorf("%s: in-process run of the same problem: %w", r.w.Name, err)
		}
	}
	return nil
}

// checkedRun is one operation: the workload's command line, then the
// check of what it wrote.
func (r *wlRun) checkedRun(confine bool, extra ...string) (rep, error) {
	m, err := r.invoke(confine, false, extra...)
	if err == nil {
		err = r.verify()
	}
	return m, err
}

// timedRep runs, verifies and counts one measured operation.
func (r *wlRun) timedRep() { r.record(r.checkedRun(oneCPU)) }
