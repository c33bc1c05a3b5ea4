package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distfdk/internal/storage"
	"distfdk/internal/volume"
)

// Every full-volume -o streams through a SlabWriter: a run that succeeds
// promotes the file, and its -slice is the central slice of that file; a
// run that fails part way leaves an existing -o byte for byte as it was and
// no partial file behind.
func TestOutputIsPromotedOrUntouched(t *testing.T) {
	dir := t.TempDir()
	noisyInput(t, filepath.Join(dir, "in.fbp"))
	out := filepath.Join(dir, "v.fbk")
	fdkrecon(t, dir, "-in", "in.fbp", "-dataset", "tomo_00030", "-div", "16", "-n", "32",
		"-o", out, "-slice", "slice.pgm")
	vol, err := volume.LoadRaw(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.SavePGM(filepath.Join(dir, "ref.pgm"), vol.NZ/2, 0, 0); err != nil {
		t.Fatal(err)
	}
	slice, _ := os.ReadFile(filepath.Join(dir, "slice.pgm"))
	ref, _ := os.ReadFile(filepath.Join(dir, "ref.pgm"))
	if len(slice) == 0 || !bytes.Equal(slice, ref) {
		t.Error("-slice differs from the central slice of the promoted -o")
	}
	if _, err := os.Stat(out + storage.PartialSuffix); !os.IsNotExist(err) {
		t.Errorf("a successful run left its partial file: %v", err)
	}

	// A second run into the same -o loses its input once it has stored a
	// slab: the input is cut back to its header, so a later batch's load
	// reads past the end of the file.
	before, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "cut.fbp")
	noisyInput(t, in)
	cmd := fdkreconCmd(t, dir, []string{"GOMAXPROCS=1"}, "-in", in, "-dataset", "tomo_00030", "-div", "16",
		"-n", "128", "-batches", "32", "-o", out)
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	partial := out + storage.PartialSuffix
	buf := make([]byte, 20+8*4*128*128*4) // the header and the first 8 of the 32 slabs
	var runErr error
cut:
	for {
		select {
		case runErr = <-exited:
			t.Fatalf("the run ended (%v) before it stored a slab to cut the input under:\n%s", runErr, output.Bytes())
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
		t.Fatalf("the run with its input cut: err %v, want a failed load:\n%s", runErr, output.Bytes())
	}
	after, err := os.ReadFile(out)
	if err != nil || !bytes.Equal(after, before) {
		t.Errorf("the failed run changed the existing -o (err %v)", err)
	}
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Errorf("the failed run left its partial file: %v", err)
	}
}
