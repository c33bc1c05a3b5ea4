package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"distfdk/internal/storage"
	"distfdk/internal/volume"
)

// Every -o streams through a SlabWriter — a whole volume, a Z window, an
// iterative volume: a run that succeeds promotes the file, whose header is
// the run's output, and its -slice is the central slice of that file; a run
// that fails part way leaves an existing -o byte for byte as it was and no
// partial file behind.
func TestOutputIsPromotedOrUntouched(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	input := []string{"-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16"}
	for _, mode := range []struct {
		name string
		args []string
		want volume.Header
	}{
		{"full", nil, volume.Header{NX: 32, NY: 32, NZ: 32}},
		{"window", []string{"-zlo", "20", "-znz", "8"}, volume.Header{NX: 32, NY: 32, NZ: 8, Z0: 20}},
		{"sirt", []string{"-algo", "sirt", "-iters", "2"}, volume.Header{NX: 32, NY: 32, NZ: 32}},
	} {
		out := filepath.Join(dir, mode.name+".fbk")
		fdkrecon(t, dir, slices.Concat(input, []string{"-n", "32"}, mode.args, []string{"-o", out, "-slice", "slice.pgm"})...)
		vol, err := volume.LoadRaw(out)
		if err != nil {
			t.Fatal(err)
		}
		if vol.Header() != mode.want {
			t.Errorf("%s: -o holds %v, want %v", mode.name, vol.Header(), mode.want)
		}
		if err := vol.SavePGM(filepath.Join(dir, "ref.pgm"), vol.NZ/2, 0, 0); err != nil {
			t.Fatal(err)
		}
		slice, _ := os.ReadFile(filepath.Join(dir, "slice.pgm"))
		ref, _ := os.ReadFile(filepath.Join(dir, "ref.pgm"))
		if len(slice) == 0 || !bytes.Equal(slice, ref) {
			t.Errorf("%s: -slice differs from the central slice of the promoted -o", mode.name)
		}
		if _, err := os.Stat(out + storage.PartialSuffix); !os.IsNotExist(err) {
			t.Errorf("%s: a successful run left its partial file: %v", mode.name, err)
		}
	}

	for _, mode := range []struct {
		name string
		args []string
	}{{"full", nil}, {"window", []string{"-zlo", "16", "-znz", "96"}}} {
		// A second run into the same -o loses its input once it has stored
		// a slab: the input is cut back to its header, so a later batch's
		// load reads past the end of the file.
		out := filepath.Join(dir, mode.name+".fbk")
		before, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		in := filepath.Join(dir, "cut.fbp")
		noisyInput(t, in)
		cmd := fdkreconCmd(t, dir, []string{"GOMAXPROCS=1"}, slices.Concat([]string{"-in", in, "-dataset", "tomo_00030", "-div", "16",
			"-n", "128", "-batches", "32", "-o", out}, mode.args)...)
		var output bytes.Buffer
		cmd.Stdout, cmd.Stderr = &output, &output
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		partial := out + storage.PartialSuffix
		buf := make([]byte, 20+24*128*128*4) // the header and the first 6 (full) or 8 (window) of 32 slabs
		var runErr error
	cut:
		for {
			select {
			case runErr = <-exited:
				t.Fatalf("%s: the run ended (%v) before it stored a slab to cut the input under:\n%s", mode.name, runErr, output.Bytes())
			default:
			}
			// A stored slab is the first non-zero byte of the sparse file.
			f, err := os.Open(partial)
			if err == nil {
				n, _ := f.ReadAt(buf, 0)
				f.Close()
				if n > 20 && len(bytes.Trim(buf[20:n], "\x00")) > 0 {
					if err := os.Truncate(in, 16); err != nil {
						t.Fatal(err)
					}
					break cut
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
		if runErr = <-exited; runErr == nil || !strings.Contains(output.String(), "read row") {
			t.Fatalf("%s: the run with its input cut: err %v, want a failed load:\n%s", mode.name, runErr, output.Bytes())
		}
		after, err := os.ReadFile(out)
		if err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the failed run changed the existing -o (err %v)", mode.name, err)
		}
		if _, err := os.Stat(partial); !os.IsNotExist(err) {
			t.Errorf("%s: the failed run left its partial file: %v", mode.name, err)
		}
	}
}
