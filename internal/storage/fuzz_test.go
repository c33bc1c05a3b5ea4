package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distfdk/internal/alloctest"
	"distfdk/internal/geometry"
)

// The fuzz targets' invariant, for both readers of files this process did
// not necessarily write: a typed error or an exact round trip — never a
// panic, a hang, or an allocation beyond a small multiple of the input.
// Their seeds run in every `go test`; `make fuzz-smoke` mutates from them
// for 10 s per target.

// stackFile returns a container's bytes: the header words, then samples.
func stackFile(nu, np, nv uint32, samples ...float32) []byte {
	var b []byte
	for _, h := range []uint32{projMagic, nu, np, nv} {
		b = binary.LittleEndian.AppendUint32(b, h)
	}
	for _, x := range samples {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// wrappedStack is sixteen bytes whose header claims 2²⁰ × 2²¹ × 2²¹ samples:
// 2⁶⁴ bytes, which in an int64 is the empty payload the file has.
var wrappedStack = stackFile(1<<20, 1<<21, 1<<21)

// A header whose size wraps to the file's must be refused, not opened with
// dimensions the first LoadRows would hand to make.
func TestOpenStackRejectsWrappedSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrapped.fbp")
	if err := os.WriteFile(path, wrappedStack, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStack(path)
	if !errors.Is(err, ErrBadStack) {
		if err == nil {
			nu, np, nv := src.Dims()
			src.Close()
			t.Fatalf("a 16-byte file opened as %dx%dx%d", nu, np, nv)
		}
		t.Fatalf("want ErrBadStack, got %v", err)
	}
}

func FuzzOpenStack(f *testing.F) {
	valid := stackFile(3, 2, 2, 1, -2.5, 3, 4, 5, 6, 7, 8, 9, 10, 11, float32(math.NaN()))
	for _, s := range [][]byte{
		valid, valid[:len(valid)-8], valid[:len(valid)-1], append(valid[:len(valid):len(valid)], 0, 0, 0, 0),
		valid[:0], valid[:3], valid[:4], valid[:15], valid[:16], // torn inside and right after the header
		wrappedStack,
		stackFile(1<<31-1, 1<<31-1, 1<<31-1),   // the largest claim
		stackFile(1<<16, 1<<16, 1<<30, 1, 2),   // 2⁶⁴ bytes again, with a payload
		stackFile(0, 2, 2), stackFile(2, 2, 0), // empty dimensions
		stackFile(0xffffffff, 1, 1, 1), // a negative one
		stackFile(1, 1, 1, 1)[4:],      // no magic
		stackFile(2, 1, 1, 1),          // one sample short
	} {
		f.Add(s)
	}
	path := filepath.Join(f.TempDir(), "fuzz.fbp")
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var src *FileSource
		var data []float32
		var err error
		got := alloctest.AllocatedBy(func() {
			if src, err = OpenStack(path); err != nil {
				return
			}
			nu, np, nv := src.Dims()
			if 4*float64(nu)*float64(np)*float64(nv) != float64(len(b)-projHeaderBytes) {
				return // reported below, before anything is sized from it
			}
			st, lerr := src.LoadRows(geometry.RowRange{Lo: 0, Hi: nv}, 0, np)
			if err = lerr; err == nil {
				data = st.Data
			}
		})
		if src != nil {
			defer src.Close()
		}
		if bound := uint64(2*len(b) + 64<<10); got > bound {
			t.Fatalf("%d input bytes allocated %d", len(b), got)
		}
		if src == nil {
			if !errors.Is(err, ErrBadStack) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("an opened stack failed to load: %v", err)
		}
		nu, np, nv := src.Dims()
		if enc := stackFile(uint32(nu), uint32(np), uint32(nv), data...); !bytes.Equal(enc, b) {
			t.Fatalf("opened as %dx%dx%d, which re-encodes to %d bytes, not the %d read", nu, np, nv, len(enc), len(b))
		}
	})
}

// journalSeeds returns a journal of plan fp and the ways a crash, a disk or
// another run breaks it.
func journalSeeds(fp string) []string {
	good := headerLine(fp) + recordLine(0, 0) + recordLine(8, 1) + recordLine(16, 2)
	rec := recordLine(8, 1)
	flipped := strings.Replace(good, rec, strings.Replace(rec, "8", "9", 1), 1)
	return []string{
		good, "", headerLine(fp),
		good[:len(good)-1], good[:len(good)-5], good + "slab 24", // torn tails
		good[:7], strings.TrimSuffix(headerLine(fp), "\n"), // torn header
		flipped, good + "\n" + recordLine(24, 3), good + "slab x y z\n" + recordLine(24, 3), // corrupt interior lines
		good + recordLine(8, 1) + recordLine(-4, 0), // a repeated and a negative slab
		"slab 0 0\nslab 0 1\n",                      // v1
		headerLine("other-plan") + recordLine(0, 0),
		strings.Replace(good, " 2 ", " 3 ", 1), strings.Replace(good, " 2 ", " 99999999999999999999 ", 1), // versions
		"distfdk-journal\n", "distfdk-journal 2\n", "\n", "not a journal\n" + recordLine(0, 0),
		headerLine(fp+" trailing") + recordLine(0, 0),
	}
}

func FuzzJournal(f *testing.F) {
	const fp = "plan-fuzz"
	for _, s := range journalSeeds(fp) {
		f.Add([]byte(s))
	}
	path := filepath.Join(f.TempDir(), "fuzz.journal")
	// Replay logs every record it drops.
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		onDisk := func() []byte {
			t.Helper()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		var j *Journal
		var err error
		got := alloctest.AllocatedBy(func() { j, err = OpenJournal(path, fp) })
		// Linear in the input: the lines are held once or twice over, and
		// each costs a parse, a re-rendered record and perhaps a log line.
		if bound := uint64(8*len(b) + 1024*(bytes.Count(b, []byte{'\n'})+1) + 64<<10); got > bound {
			t.Fatalf("%d input bytes allocated %d", len(b), got)
		}
		if err != nil {
			if !errors.Is(err, ErrJournalHeader) && !errors.Is(err, ErrPlanMismatch) {
				t.Fatalf("untyped error %v", err)
			}
			if !bytes.Equal(onDisk(), b) {
				t.Fatal("a refused journal was modified")
			}
			return
		}
		// Accepted: the file is the input's complete lines — or a fresh
		// header where the input had not even that — and replay's books
		// account for each of them.
		want := b[:bytes.LastIndexByte(b, '\n')+1]
		if len(want) == 0 {
			want = []byte(headerLine(fp))
		}
		if !bytes.Equal(onDisk(), want) {
			t.Fatalf("journal holds %q, want %q", onDisk(), want)
		}
		dropped := 0
		for _, line := range strings.SplitAfter(string(want), "\n")[1:] {
			if z0, _, ok := parseRecord(line); ok && !j.Done(z0) {
				t.Fatalf("record %q not replayed", line)
			} else if !ok && line != "" {
				dropped++
			}
		}
		if j.Dropped() != dropped {
			t.Fatalf("Dropped = %d, want %d", j.Dropped(), dropped)
		}
		// The round trip: a slab recorded behind the repaired tail is
		// there after a reopen, beside everything replayed before it.
		fresh := 0
		for j.Done(fresh) {
			fresh++
		}
		n := j.Len()
		if err := j.Record(fresh, 7); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if want = append(want[:len(want):len(want)], recordLine(fresh, 7)...); !bytes.Equal(onDisk(), want) {
			t.Fatalf("after Record the journal holds %q, want %q", onDisk(), want)
		}
		j, err = OpenJournal(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if !j.Done(fresh) || j.Len() != n+1 || j.Dropped() != dropped {
			t.Fatalf("reopened: Done(%d) %v, Len %d (want %d), Dropped %d (want %d)",
				fresh, j.Done(fresh), j.Len(), n+1, j.Dropped(), dropped)
		}
	})
}
