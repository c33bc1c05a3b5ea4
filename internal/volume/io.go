package volume

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
)

// rawHeaderBytes is the five int32 words in front of the voxels.
const rawHeaderBytes = 20

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

// ErrBadHeader is matched (errors.Is) when the 20 header bytes of a raw
// container cannot be a volume's: wrong magic, a non-positive dimension, a
// negative origin, a voxel count no slice can hold, or (LoadRaw) a count
// the file's size contradicts.
var ErrBadHeader = errors.New("volume: bad raw volume header")

// ReadRaw deserialises a volume written by WriteRaw. The header is twenty
// untrusted bytes: the voxel storage starts at no more than one chunk and
// doubles only as voxel bytes arrive, so what an input can make this
// process allocate is bounded by what it sends.
func ReadRaw(r io.Reader) (*Volume, error) { return readRaw(r, -1) }

// readRaw is ReadRaw for a source of unknown length (size < 0) or of a known
// one, which the header must then account for to the byte and whose voxels
// are allocated once.
func readRaw(r io.Reader, size int64) (*Volume, error) {
	buf := make([]byte, rawChunkBytes)
	if _, err := io.ReadFull(r, buf[:rawHeaderBytes]); err != nil {
		return nil, fmt.Errorf("volume: read header: %w", err)
	}
	var hdr [5]int32
	for i := range hdr {
		hdr[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	if hdr[0] != rawMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadHeader, hdr[0])
	}
	nx, ny, nz, z0 := int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4])
	if nx <= 0 || ny <= 0 || nz <= 0 || z0 < 0 {
		return nil, fmt.Errorf("%w: dimensions %dx%dx%d at slice %d", ErrBadHeader, nx, ny, nz, z0)
	}
	// Three 31-bit factors times four wrap an int64; take the product at
	// full width.
	hi, payload := bits.Mul64(uint64(nx)*uint64(ny), 4*uint64(nz))
	if hi != 0 || payload > math.MaxInt-rawHeaderBytes {
		return nil, fmt.Errorf("%w: %dx%dx%d voxels do not fit in memory", ErrBadHeader, nx, ny, nz)
	}
	voxels := int(payload / 4)
	first := min(voxels, rawChunkBytes/4)
	if size >= 0 {
		if want := rawHeaderBytes + int64(payload); size != want {
			return nil, fmt.Errorf("%w: file is %d bytes, %dx%dx%d voxels imply %d", ErrBadHeader, size, nx, ny, nz, want)
		}
		first = voxels
	}
	data := make([]float32, 0, first)
	for len(data) < voxels {
		n := min(voxels-len(data), rawChunkBytes/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return nil, fmt.Errorf("volume: read voxels: %w", err)
		}
		if len(data)+n > cap(data) {
			data = append(make([]float32, 0, min(voxels, 2*cap(data))), data...)
		}
		data = data[:len(data)+n]
		for i, tail := 0, data[len(data)-n:]; i < n; i++ {
			tail[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return &Volume{NX: nx, NY: ny, NZ: nz, Z0: z0, Data: data}, nil
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

// LoadRaw reads a volume from the named file, whose size must be exactly
// what its header implies.
func LoadRaw(path string) (*Volume, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readRaw(f, info.Size())
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
