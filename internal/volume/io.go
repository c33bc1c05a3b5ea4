package volume

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// rawMagic identifies the simple little-endian volume container written by
// WriteRaw: magic, three int32 dimensions, int32 Z origin, then float32
// voxels in Z-major order.
const rawMagic = 0x46424b31 // "FBK1"

// rawChunkBytes is the size of the scratch buffer WriteRaw and ReadRaw move
// voxels through: large enough that a file sees few system calls, small
// enough to stay in cache, and independent of the volume's size.
const rawChunkBytes = 64 << 10

// WriteRaw serialises the volume to w in the repository's raw container
// format, encoding through one fixed-size buffer.
func (v *Volume) WriteRaw(w io.Writer) error {
	buf := make([]byte, 0, rawChunkBytes)
	for _, h := range [...]int32{rawMagic, int32(v.NX), int32(v.NY), int32(v.NZ), int32(v.Z0)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("volume: write header: %w", err)
	}
	for data := v.Data; len(data) > 0; {
		n := min(len(data), rawChunkBytes/4)
		buf = buf[:0]
		for _, x := range data[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("volume: write voxels: %w", err)
		}
		data = data[n:]
	}
	return nil
}

// ReadRaw deserialises a volume written by WriteRaw.
func ReadRaw(r io.Reader) (*Volume, error) {
	buf := make([]byte, rawChunkBytes)
	if _, err := io.ReadFull(r, buf[:20]); err != nil {
		return nil, fmt.Errorf("volume: read header: %w", err)
	}
	var hdr [5]int32
	for i := range hdr {
		hdr[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	if hdr[0] != rawMagic {
		return nil, fmt.Errorf("volume: bad magic %#x", hdr[0])
	}
	nx, ny, nz, z0 := int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4])
	v, err := NewSlab(nx, ny, nz, z0)
	if err != nil {
		return nil, err
	}
	for data := v.Data; len(data) > 0; {
		n := min(len(data), rawChunkBytes/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return nil, fmt.Errorf("volume: read voxels: %w", err)
		}
		for i := range data[:n] {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		data = data[n:]
	}
	return v, nil
}

// SaveRaw writes the volume to the named file.
func (v *Volume) SaveRaw(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := v.WriteRaw(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRaw reads a volume from the named file.
func LoadRaw(path string) (*Volume, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRaw(f)
}

// WritePGM renders the k-th XY slice as an 8-bit binary PGM image,
// windowed to [lo, hi] (pass lo==hi to auto-window to the slice's range).
// PGM is chosen because it needs no external codecs yet opens in any image
// viewer — the repository's stand-in for the paper's 3D Slicer inspection
// (Figures 8 and 11).
func (v *Volume) WritePGM(w io.Writer, k int, lo, hi float32) error {
	if k < 0 || k >= v.NZ {
		return fmt.Errorf("volume: slice %d outside [0,%d)", k, v.NZ)
	}
	sl := v.Slice(k)
	if lo == hi {
		lo, hi = sl[0], sl[0]
		for _, x := range sl {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if lo == hi { // constant slice
			hi = lo + 1
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", v.NX, v.NY); err != nil {
		return err
	}
	scale := 255 / (hi - lo)
	for _, x := range sl {
		g := (x - lo) * scale
		if g < 0 {
			g = 0
		}
		if g > 255 {
			g = 255
		}
		if err := bw.WriteByte(byte(g)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SavePGM writes the k-th slice to the named PGM file.
func (v *Volume) SavePGM(path string, k int, lo, hi float32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := v.WritePGM(f, k, lo, hi); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
