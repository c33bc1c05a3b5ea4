// Package storage provides the persistent-data side of the framework: a
// projection container whose on-disk layout matches the kernel's (v, p, u)
// order — so a rank's partial load (detector-row range × projection window)
// maps to a handful of sequential reads, the property that gives the
// paper's load stage its O(Nu) input lower bound — and a slab writer that
// assembles reduced sub-volumes into one output volume the way the store
// stage writes to the parallel filesystem.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
	"time"
	"unsafe"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// projMagic identifies the projection container: magic + nu/np/nv int32
// header followed by float32 samples in (v, p, u) order.
const projMagic = 0x46425031 // "FBP1"

const projHeaderBytes = 16

// WriteStack writes a full projection stack (origin at row 0, projection 0)
// to the named file. The write is crash-consistent: samples land in a
// temporary file that is fsynced and atomically renamed into place, so a
// crash mid-write can never leave a truncated container behind a valid
// magic — the path either holds the complete stack or whatever was there
// before.
func WriteStack(path string, s *projection.Stack) error {
	if s.V0 != 0 || s.P0 != 0 {
		return fmt.Errorf("storage: can only persist full stacks at origin, got v0=%d p0=%d", s.V0, s.P0)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	hdr := []int32{projMagic, int32(s.NU), int32(s.NP), int32(s.NV)}
	if err := binary.Write(f, binary.LittleEndian, hdr); err != nil {
		return cleanup(fmt.Errorf("storage: write header: %w", err))
	}
	if err := writeFloats(f, s.Data, projHeaderBytes); err != nil {
		return cleanup(fmt.Errorf("storage: write samples: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("storage: sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory containing path so a rename survives a
// crash of the directory metadata too. Filesystems that refuse directory
// fsync (some network mounts) are tolerated.
func syncDir(path string) error {
	d, err := os.Open(filepathDir(path))
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// filepathDir is filepath.Dir without pulling the import into the hot
// sample-shuffling file for one call site.
func filepathDir(path string) string {
	i := len(path) - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	if i < 0 {
		return "."
	}
	if i == 0 {
		return "/"
	}
	return path[:i]
}

// hostLittleEndian: this host stores a float32 in the container's byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FileSource serves partial projection loads from a WriteStack container.
// It implements projection.Source and is safe for concurrent use.
type FileSource struct {
	f          *os.File
	nu, np, nv int
}

var _ projection.Source = (*FileSource)(nil)

// ErrBadStack is matched (errors.Is) by every OpenStack rejection of a
// file's content: wrong magic, a non-positive dimension, or dimensions the
// file's size contradicts.
var ErrBadStack = errors.New("storage: not a valid projection stack")

// OpenStack opens a projection container for partial reads.
func OpenStack(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [4]int32
	if err := binary.Read(f, binary.LittleEndian, &hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read header: %w", err)
	}
	if hdr[0] != projMagic {
		f.Close()
		return nil, fmt.Errorf("%w: bad projection magic %#x", ErrBadStack, hdr[0])
	}
	nu, np, nv := int(hdr[1]), int(hdr[2]), int(hdr[3])
	if nu <= 0 || np <= 0 || nv <= 0 {
		f.Close()
		return nil, fmt.Errorf("%w: header claims non-positive dims %dx%dx%d", ErrBadStack, nu, np, nv)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	// The header is untrusted and its three 31-bit factors times four wrap
	// an int64 (2²⁰ × 2²¹ × 2²¹ × 4 = 2⁶⁴ reads as 0, the payload of a bare
	// header), so the product is taken at full width. Only dimensions the
	// file really holds get past here, which is what lets LoadRows size its
	// buffers from them.
	hi, want := bits.Mul64(uint64(nu)*uint64(np), 4*uint64(nv))
	if hi != 0 || want != uint64(info.Size()-projHeaderBytes) {
		f.Close()
		return nil, fmt.Errorf("%w: file is %d bytes, header claims %dx%dx%d samples (truncated or corrupt stack)",
			ErrBadStack, info.Size(), nu, np, nv)
	}
	return &FileSource{f: f, nu: nu, np: np, nv: nv}, nil
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }

// Dims implements projection.Source.
func (s *FileSource) Dims() (int, int, int) { return s.nu, s.np, s.nv }

// LoadRows implements projection.Source: it reads detector rows `rows` of
// the projection window [pLo, pHi). A full projection window is a single
// sequential read; a sub-window reads one contiguous segment per row.
func (s *FileSource) LoadRows(rows geometry.RowRange, pLo, pHi int) (*projection.Stack, error) {
	if rows.IsEmpty() || rows.Lo < 0 || rows.Hi > s.nv {
		return nil, fmt.Errorf("storage: rows %v outside detector [0,%d)", rows, s.nv)
	}
	if pLo < 0 || pHi > s.np || pLo >= pHi {
		return nil, fmt.Errorf("storage: projection window [%d,%d) outside [0,%d)", pLo, pHi, s.np)
	}
	np := pHi - pLo
	out := &projection.Stack{
		NU: s.nu, NP: np, NV: rows.Len(), V0: rows.Lo, P0: pLo,
		Data: make([]float32, s.nu*np*rows.Len()),
	}
	// The file's (v, p, u) order is the stack's, so samples are read
	// straight into the stack and decoded where they lie — which on a
	// little-endian host, whose float32s already are the container's
	// bytes, is nothing to do.
	step := rows.Len() // detector rows per read
	if np < s.np {
		step = 1
	}
	for v := rows.Lo; v < rows.Hi; v += step {
		off := int64(projHeaderBytes) + (int64(v)*int64(s.np)+int64(pLo))*int64(s.nu)*4
		dst := out.Data[(v-rows.Lo)*np*s.nu : (v-rows.Lo+step)*np*s.nu]
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)*4)
		if _, err := s.f.ReadAt(raw, off); err != nil {
			return nil, fmt.Errorf("storage: read row %d: %w", v, err)
		}
		if !hostLittleEndian {
			for i := range dst {
				dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
			}
		}
	}
	return out, nil
}

// SlabWriter assembles reduced sub-volumes into one raw volume file
// (volume.ReadRaw-compatible). Slabs may arrive in any order and from
// concurrent writers, mirroring how independent MPI groups store their
// slices to the PFS.
//
// The writer is crash-consistent: slabs accumulate in `path+".partial"`
// and the file is promoted to its final name only by Close, after an
// fsync — so the final path never holds an incomplete volume. A run that
// is killed mid-reconstruction leaves the partial file behind;
// ResumeSlabWriter reopens it (together with the checkpoint Journal) so a
// restart redoes only the missing slabs. Slab writes land at fixed
// offsets, which makes retried and replayed stores idempotent.
type SlabWriter struct {
	f          *os.File
	path       string // final destination; f writes to path+".partial"
	nx, ny, nz int
	mu         sync.Mutex
	written    int

	// tel holds the I/O telemetry handles (see SetTelemetry); installed
	// before the writer is shared, read-only afterwards.
	tel *slabTelemetry
}

// volHeaderBytes matches volume.WriteRaw's 5-int32 header.
const volHeaderBytes = 20

// slabChunkBytes is the size of the buffer writeFloats encodes through.
const slabChunkBytes = 64 << 10

// writeFloats writes data little-endian into f from offset off. It encodes
// through one bounded buffer rather than a data-sized one: the leader stores
// a slab per batch, and slab-sized garbage per batch is what its peak heap
// would otherwise be made of; a projection stack would be one more copy of
// the input.
func writeFloats(f *os.File, data []float32, off int64) error {
	buf := make([]byte, 0, slabChunkBytes)
	for len(data) > 0 {
		n := min(len(data), slabChunkBytes/4)
		buf = buf[:0]
		for _, x := range data[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, floatToBits(x))
		}
		if _, err := f.WriteAt(buf, off); err != nil {
			return err
		}
		off += int64(len(buf))
		data = data[n:]
	}
	return nil
}

// volMagic identifies the raw volume container.
const volMagic = 0x46424b31 // "FBK1"

// PartialSuffix is appended to a SlabWriter's destination path while the
// volume is being assembled.
const PartialSuffix = ".partial"

// NewSlabWriter creates (truncates) the partial output file and sizes it
// for the full volume. The final path is only written by Close.
func NewSlabWriter(path string, nx, ny, nz int) (*SlabWriter, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("storage: volume %dx%dx%d must be positive", nx, ny, nz)
	}
	f, err := os.Create(path + PartialSuffix)
	if err != nil {
		return nil, err
	}
	hdr := []int32{volMagic, int32(nx), int32(ny), int32(nz), 0}
	if err := binary.Write(f, binary.LittleEndian, hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(volHeaderBytes + int64(nx)*int64(ny)*int64(nz)*4); err != nil {
		f.Close()
		return nil, err
	}
	return &SlabWriter{f: f, path: path, nx: nx, ny: ny, nz: nz}, nil
}

// ResumeSlabWriter reopens the partial file a killed run left behind,
// validating that its header and size match the requested volume so a
// resume cannot silently continue into a file from a different plan.
func ResumeSlabWriter(path string, nx, ny, nz int) (*SlabWriter, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("storage: volume %dx%dx%d must be positive", nx, ny, nz)
	}
	f, err := os.OpenFile(path+PartialSuffix, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [5]int32
	if err := binary.Read(f, binary.LittleEndian, &hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: resume %s: read header: %w", path, err)
	}
	if hdr[0] != volMagic {
		f.Close()
		return nil, fmt.Errorf("storage: resume %s: bad volume magic %#x", path, hdr[0])
	}
	if int(hdr[1]) != nx || int(hdr[2]) != ny || int(hdr[3]) != nz {
		f.Close()
		return nil, fmt.Errorf("storage: resume %s: partial is %dx%dx%d, want %dx%dx%d",
			path, hdr[1], hdr[2], hdr[3], nx, ny, nz)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	want := volHeaderBytes + int64(nx)*int64(ny)*int64(nz)*4
	if info.Size() != want {
		f.Close()
		return nil, fmt.Errorf("storage: resume %s: partial is %d bytes, want %d", path, info.Size(), want)
	}
	return &SlabWriter{f: f, path: path, nx: nx, ny: ny, nz: nz}, nil
}

// WriteSlab stores a sub-volume at its Z0 window.
func (w *SlabWriter) WriteSlab(slab *volume.Volume) error {
	if slab.NX != w.nx || slab.NY != w.ny {
		return fmt.Errorf("storage: slab XY %dx%d does not match volume %dx%d", slab.NX, slab.NY, w.nx, w.ny)
	}
	if slab.Z0 < 0 || slab.Z0+slab.NZ > w.nz {
		return fmt.Errorf("storage: slab window [%d,%d) outside [0,%d)", slab.Z0, slab.Z0+slab.NZ, w.nz)
	}
	var t0 time.Time
	if w.tel != nil {
		t0 = time.Now()
	}
	off := volHeaderBytes + int64(slab.Z0)*int64(w.nx)*int64(w.ny)*4
	if err := writeFloats(w.f, slab.Data, off); err != nil {
		return fmt.Errorf("storage: write slab at z=%d: %w", slab.Z0, err)
	}
	if t := w.tel; t != nil {
		t.writes.Inc()
		t.writeBytes.Add(slab.Bytes())
		t.writeNs.Add(int64(time.Since(t0)))
	}
	w.mu.Lock()
	w.written += slab.NZ
	w.mu.Unlock()
	return nil
}

// WrittenSlices returns the number of Z slices stored so far.
func (w *SlabWriter) WrittenSlices() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Sync flushes written slabs to stable storage. Group leaders call it
// before journaling a checkpoint so the journal never gets ahead of the
// data it describes.
func (w *SlabWriter) Sync() error {
	var t0 time.Time
	if w.tel != nil {
		t0 = time.Now()
	}
	err := w.f.Sync()
	if t := w.tel; t != nil {
		t.syncs.Inc()
		t.syncNs.Add(int64(time.Since(t0)))
	}
	return err
}

// Close fsyncs the partial file and atomically promotes it to the final
// path. The destination is only ever a complete volume.
func (w *SlabWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("storage: sync volume: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path+PartialSuffix, w.path); err != nil {
		return err
	}
	return syncDir(w.path)
}

// ClosePartial fsyncs and closes the partial file without promoting it,
// leaving it on disk for a later ResumeSlabWriter. Used when a run aborts
// after storing some, but not all, slabs.
func (w *SlabWriter) ClosePartial() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("storage: sync partial volume: %w", err)
	}
	return w.f.Close()
}

// Abort closes the partial file and removes it, leaving the final path as
// it was. A run that keeps no journal cannot resume, so it gives up its
// slabs when it fails.
func (w *SlabWriter) Abort() error {
	w.f.Close()
	return os.Remove(w.path + PartialSuffix)
}
