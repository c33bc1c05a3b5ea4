package volume

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"distfdk/internal/alloctest"
)

// rawFile returns a container's bytes: the header words, then voxels.
func rawFile(nx, ny, nz, z0 uint32, voxels ...float32) []byte {
	var b []byte
	for _, h := range []uint32{rawMagic, nx, ny, nz, z0} {
		b = binary.LittleEndian.AppendUint32(b, h)
	}
	for _, x := range voxels {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// Twenty bytes must not buy an allocation: a header claiming (2³¹−1)³ voxels
// (no slice is that long) or 2048³ (32 GiB) is refused by LoadRaw against
// the file's size, and costs ReadRaw a torn tail's worth of memory.
func TestRawHeaderDoesNotSizeAllocation(t *testing.T) {
	for _, n := range []uint32{1<<31 - 1, 2048} {
		hostile := rawFile(n, n, n, 0)
		path := filepath.Join(t.TempDir(), "hostile.fbk")
		if err := os.WriteFile(path, hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		got := alloctest.AllocatedBy(func() { _, err = LoadRaw(path) })
		if !errors.Is(err, ErrBadHeader) {
			t.Errorf("LoadRaw of a bare %d³ header: want ErrBadHeader, got %v", n, err)
		}
		if got > 4*rawChunkBytes {
			t.Errorf("LoadRaw of a bare %d³ header allocated %d bytes", n, got)
		}
		got = alloctest.AllocatedBy(func() { _, err = ReadRaw(bytes.NewReader(hostile)) })
		if !errors.Is(err, ErrBadHeader) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Errorf("ReadRaw of a bare %d³ header: %v", n, err)
		}
		if got > 4*rawChunkBytes {
			t.Errorf("ReadRaw of a bare %d³ header allocated %d bytes", n, got)
		}
	}
}

// FuzzReadRaw holds ReadRaw to a typed error or an exact round trip, never a
// panic, a hang or an allocation beyond a small multiple of the input. The
// seeds run in every `go test`; `make fuzz-smoke` mutates from them.
func FuzzReadRaw(f *testing.F) {
	valid := rawFile(3, 2, 2, 5, 1, -2.5, 3, 4, 5, 6, 7, 8, 9, 10, 11, float32(math.NaN()))
	for _, s := range [][]byte{
		valid, append(valid[:len(valid):len(valid)], 0xde, 0xad),
		valid[:0], valid[:3], valid[:4], valid[:12], valid[:19], valid[:20], valid[:23], valid[:len(valid)-1], // torn
		rawFile(1<<31-1, 1<<31-1, 1<<31-1, 0), rawFile(2048, 2048, 2048, 0, 1, 2),
		rawFile(1<<16, 1<<16, 1<<30, 0),                   // 2⁶⁴ bytes
		rawFile(0, 2, 2, 0), rawFile(2, 2, 0xffffffff, 0), // an empty and a negative dimension
		rawFile(1, 1, 1, 0x80000000, 1), rawFile(1, 1, 1, 0, 1)[4:], // a negative origin, no magic
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v *Volume
		var err error
		if got := alloctest.AllocatedBy(func() { v, err = ReadRaw(bytes.NewReader(b)) }); got > uint64(8*len(b)+4*rawChunkBytes) {
			t.Fatalf("%d input bytes allocated %d", len(b), got)
		}
		if err != nil {
			if !errors.Is(err, ErrBadHeader) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var enc bytes.Buffer
		if err := v.WriteRaw(&enc); err != nil {
			t.Fatal(err)
		}
		if enc.Len() > len(b) || !bytes.Equal(enc.Bytes(), b[:enc.Len()]) {
			t.Fatalf("a %s volume re-encodes to %d bytes that are not the input's first", v.ShapeString(), enc.Len())
		}
	})
}
