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

// HeaderBytes is the size of a raw container's header: five int32 words in
// front of the voxels.
const HeaderBytes = 20

// rawMagic identifies the simple little-endian volume container written by
// WriteRaw and storage.SlabWriter: magic, three int32 dimensions, int32 Z
// origin, then float32 voxels in Z-major order.
const rawMagic = 0x46424b31 // "FBK1"

// rawChunkBytes is the size of the scratch buffer WriteRaw and readRaw move
// voxels through: large enough that a file sees few system calls, small
// enough to stay in cache, and independent of the volume's size.
const rawChunkBytes = 64 << 10

// Header is what a raw container's header says: the volume's dimensions and
// the global index Z0 of its first slice.
type Header struct{ NX, NY, NZ, Z0 int }

// Header returns the header WriteRaw writes for v.
func (v *Volume) Header() Header { return Header{NX: v.NX, NY: v.NY, NZ: v.NZ, Z0: v.Z0} }

func (h Header) String() string { return fmt.Sprintf("%dx%dx%d@z%d", h.NX, h.NY, h.NZ, h.Z0) }

// FileBytes returns the size of a container with this header: the header and
// NX·NY·NZ float32 voxels.
func (h Header) FileBytes() int64 { return HeaderBytes + 4*int64(h.NX)*int64(h.NY)*int64(h.NZ) }

// Append appends the header's bytes to buf.
func (h Header) Append(buf []byte) []byte {
	for _, w := range [...]int32{rawMagic, int32(h.NX), int32(h.NY), int32(h.NZ), int32(h.Z0)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
	}
	return buf
}

// Validate refuses a header no volume can have: a non-positive dimension, a
// negative origin, a value its int32 word cannot hold, or a voxel count no
// slice can hold.
func (h Header) Validate() error {
	if h.NX <= 0 || h.NY <= 0 || h.NZ <= 0 || h.Z0 < 0 || max(h.NX, h.NY, h.NZ, h.Z0) > math.MaxInt32 {
		return fmt.Errorf("%w: dimensions %dx%dx%d at slice %d", ErrBadHeader, h.NX, h.NY, h.NZ, h.Z0)
	}
	// Three 31-bit factors times four wrap an int64; take the product at
	// full width.
	hi, payload := bits.Mul64(uint64(h.NX)*uint64(h.NY), 4*uint64(h.NZ))
	if hi != 0 || payload > math.MaxInt-HeaderBytes {
		return fmt.Errorf("%w: %dx%dx%d voxels do not fit in memory", ErrBadHeader, h.NX, h.NY, h.NZ)
	}
	return nil
}

// WriteRaw serialises the volume to w in the repository's raw container
// format, encoding through one fixed-size buffer.
func (v *Volume) WriteRaw(w io.Writer) error {
	buf := v.Header().Append(make([]byte, 0, rawChunkBytes))
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
// negative origin, a voxel count no slice can hold, or a count the file's
// size contradicts.
var ErrBadHeader = errors.New("volume: bad raw volume header")

// ReadHeader reads a container's header from r and checks it. The bytes are
// untrusted: the magic and Validate must pass, and a source of known length
// (size ≥ 0; size < 0 is unknown) must hold exactly the voxels the header
// implies.
func ReadHeader(r io.Reader, size int64) (Header, error) {
	var b [HeaderBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Header{}, fmt.Errorf("volume: read header: %w", err)
	}
	var w [5]int32
	for i := range w {
		w[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	if w[0] != rawMagic {
		return Header{}, fmt.Errorf("%w: bad magic %#x", ErrBadHeader, w[0])
	}
	h := Header{NX: int(w[1]), NY: int(w[2]), NZ: int(w[3]), Z0: int(w[4])}
	if err := h.Validate(); err != nil {
		return Header{}, err
	}
	if size >= 0 && size != h.FileBytes() {
		return Header{}, fmt.Errorf("%w: file is %d bytes, %dx%dx%d voxels imply %d", ErrBadHeader, size, h.NX, h.NY, h.NZ, h.FileBytes())
	}
	return h, nil
}

// readRaw deserialises a volume written by WriteRaw from a source of a
// known length, which the header must account for to the byte and whose
// voxels are allocated once, or of an unknown one (size < 0). The header is
// twenty untrusted bytes: for a source of unknown length the voxel storage
// starts at no more than one chunk and doubles only as voxel bytes arrive,
// so what an input can make this process allocate is bounded by what it
// sends.
func readRaw(r io.Reader, size int64) (*Volume, error) {
	h, err := ReadHeader(r, size)
	if err != nil {
		return nil, err
	}
	voxels := h.NX * h.NY * h.NZ
	first := min(voxels, rawChunkBytes/4)
	if size >= 0 {
		first = voxels
	}
	buf := make([]byte, rawChunkBytes)
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
	return &Volume{NX: h.NX, NY: h.NY, NZ: h.NZ, Z0: h.Z0, Data: data}, nil
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
