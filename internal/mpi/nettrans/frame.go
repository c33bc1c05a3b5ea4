// Package nettrans is a socket transport for mpi worlds: ranks spread
// over OS processes connected by TCP sockets in a star around process 0
// (the hub). Frames are length-prefixed and CRC32-checked; every link
// carries sequence numbers, cumulative acks and a bounded replay buffer,
// so a dropped, corrupted, duplicated or reordered frame — injected by the wire fault layer or inflicted by a
// real network — is healed by reconnect-and-replay instead of corrupting
// the computation. Heartbeats bound failure detection: a peer silent past
// the death window surfaces as the same typed rank-loss attribution the
// in-process world produces, which is what lets core.Supervise shrink and
// resume across process boundaries.
package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"distfdk/internal/mpi"
)

// frameKind enumerates the wire frame types.
type frameKind uint8

const (
	// kindData carries one mpi point-to-point message.
	kindData frameKind = 1 + iota
	// kindHello opens (or reopens) a worker→hub link: the payload carries
	// the worker's proc id, the ack field its receive cursor for replay.
	kindHello
	// kindHelloAck accepts or rejects a hello; the ack field carries the
	// hub's receive cursor for that worker.
	kindHelloAck
	// kindHeartbeat is the periodic liveness probe; its ack field
	// piggybacks the cumulative receive cursor.
	kindHeartbeat
	// kindLost broadcasts world ranks whose functions failed (culprits),
	// so every process tears down with the same attribution.
	kindLost
	// kindReport carries a worker's report on one of the epoch's two
	// rendezvous to the hub: epoch, phase, then the phase's control ints
	// (formation: the assignment hash; end of attempt: ok and lost ranks).
	kindReport
	// kindVerdict broadcasts the hub's decision on one rendezvous: epoch,
	// phase, ok, the lost ranks (counted) and the procs it holds dead.
	kindVerdict
	// kindCredit returns one send credit: rank src received a message of
	// rank dst on comm, so dst may send one more to src. It is routed by
	// rank like data; its tag carries the epoch and it has no payload.
	kindCredit
)

// frame is one wire unit. Data frames fill comm/src/dst/tag/msgID, credit
// frames comm/src/dst/tag; control frames use the payload. seq is non-zero
// only on reliable kinds (data, credit, lost, report, verdict) — those
// are buffered for replay until acked; handshake and heartbeat
// frames ride outside the sequence space. ack is the sender's cumulative
// receive cursor on heartbeats, handshakes and credits (a credit's is
// stamped when it is queued); the other reliable kinds carry 0.
type frame struct {
	kind     frameKind
	comm     int32
	src, dst int32
	tag      int32
	msgID    int64
	seq      uint64
	ack      uint64
	payload  []byte
	// data is a sent frame's float32 body: the sender's slice, written in
	// place and returned to the arena when the ack releases the frame.
	data []float32
	// wire, when non-nil, holds the frame in wire layout with the payload in
	// place (newWire, or readFrame's buffer, which the hub's forward leg
	// re-stamps): encoding stamps header and CRC around it without a copy.
	wire []byte
	// buf is the arena buffer readFrame read the frame into, until the
	// frame hands it on (message) or gives it back (release).
	buf []float32
	// parts is the frame's sealed wire form, one writev (unused parts are
	// empty); head and crc back a data frame's first and last part.
	parts [3][]byte
	head  [payloadOff + 5]byte
	crc   [4]byte
}

// Wire layout: u32 body length | body | u32 CRC32-IEEE(body).
// Body: u8 version | u8 kind | i32 comm | i32 src | i32 dst | i32 tag |
// i64 msgID | u64 seq | u64 ack | payload. All little-endian.
const (
	// frameVersion 3: eight kinds, formation and the end-of-attempt
	// verdict being one report/verdict exchange. Version 2 (nine kinds,
	// numbered otherwise) and version 1 (thirteen kinds, no length check on
	// the payload) are refused with errVersion.
	frameVersion = 3
	headerBytes  = 1 + 1 + 4 + 4 + 4 + 4 + 8 + 8 + 8
	payloadOff   = 4 + headerBytes
	// maxFrameBytes bounds a body so a corrupted length prefix cannot
	// drive an unbounded allocation. Slab-scale reductions stay far below
	// this (a 1 GiB payload would be rejected at encode time too).
	maxFrameBytes = 1 << 30
	// readStep is the most readFrame allocates on the word of a length
	// prefix alone; beyond it the buffer grows as bytes actually arrive.
	readStep = 64 << 10
	// frameWords is what a frame adds, in float32s, to a float payload in
	// readFrame's buffer: the lead byte, prefix, header, payload kind and
	// count, and the CRC.
	frameWords = (1 + payloadOff + 5 + 4) / 4
)

// The arena's headroom holds a frame beside its payload's class.
var _ [mpi.ScratchHeadroom - frameWords]struct{}

// Typed codec errors. Torn tails (a frame cut anywhere before its last
// CRC byte) surface as io.ErrUnexpectedEOF from readFrame; a clean cut
// between frames is io.EOF.
var (
	errCRC       = errors.New("nettrans: frame CRC mismatch")
	errVersion   = errors.New("nettrans: unknown frame version")
	errTooLarge  = errors.New("nettrans: frame exceeds size bound")
	errBadHeader = errors.New("nettrans: truncated frame header")
)

// newWire returns a wire buffer with the length prefix and header reserved
// and room for a payload of n bytes and the CRC; append the payload to it.
func newWire(n int) []byte {
	return make([]byte, payloadOff, payloadOff+n+4)
}

// putHeader writes the length prefix and header of f, whose payload is n
// bytes, into b[:payloadOff]; the offsets are readFrame's.
func putHeader(b []byte, f *frame, n int) {
	body := b[4:]
	binary.LittleEndian.PutUint32(b, uint32(headerBytes+n))
	body[0], body[1] = frameVersion, byte(f.kind)
	binary.LittleEndian.PutUint32(body[2:], uint32(f.comm))
	binary.LittleEndian.PutUint32(body[6:], uint32(f.src))
	binary.LittleEndian.PutUint32(body[10:], uint32(f.dst))
	binary.LittleEndian.PutUint32(body[14:], uint32(f.tag))
	binary.LittleEndian.PutUint64(body[18:], uint64(f.msgID))
	binary.LittleEndian.PutUint64(body[26:], f.seq)
	binary.LittleEndian.PutUint64(body[34:], f.ack)
}

// encodeFrame returns f's wire form: around f.wire when the payload is
// already in place there, around a copy of f.payload otherwise.
func encodeFrame(f *frame) []byte {
	buf := f.wire
	if buf == nil {
		buf = append(newWire(len(f.payload)), f.payload...)
	}
	putHeader(buf, f, len(buf)-payloadOff)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
}

// seal fixes f's wire form at its first write, so a replay resends the
// same bytes. A data frame with a float32 body is three parts — header and
// payload prefix, the sender's floats in place, the CRC over both — and
// any other frame is encodeFrame's one buffer.
func (f *frame) seal() [][]byte {
	if f.parts[0] != nil {
		return f.parts[:]
	}
	if f.data == nil {
		f.parts[0] = encodeFrame(f)
		return f.parts[:]
	}
	body := asBytes(f.data)
	putHeader(f.head[:], f, 5+len(body))
	f.head[payloadOff] = ptFloat32s
	binary.LittleEndian.PutUint32(f.head[payloadOff+1:], uint32(len(f.data)))
	crc := crc32.Update(crc32.ChecksumIEEE(f.head[4:]), crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(f.crc[:], crc)
	f.parts = [3][]byte{f.head[:], body, f.crc[:]}
	return f.parts[:]
}

// release returns the arena buffers f holds: a sent body once the peer
// acknowledged it, a read buffer nothing took.
func (f *frame) release() {
	mpi.PutScratch(f.data)
	mpi.PutScratch(f.buf)
	f.data, f.buf = nil, nil
}

// frameBuf borrows an arena buffer, len == cap, for n frame bytes placed
// one byte in: that puts a float32 payload on a 4-byte boundary
// (frameWords-1 elements in), and the payload's class holds the rest of the
// frame in its headroom.
func frameBuf(n int) []float32 {
	s := mpi.GetScratch(max((n+4)/4-frameWords, 1))
	return s[:cap(s)]
}

// readFrame decodes the next frame from r, reading exactly its bytes, into
// an arena buffer the frame carries as buf. io.EOF means a clean
// between-frames cut; io.ErrUnexpectedEOF a torn tail; errCRC a body whose
// checksum does not match (corruption in flight). The length prefix is four
// untrusted bytes: the buffer starts at no more than readStep and grows
// fourfold only when the bytes that arrived fill it, so what a connection
// can make this process allocate is bounded by what it sends.
func readFrame(r io.Reader) (*frame, error) {
	f := new(frame)
	lenBuf := f.crc[:] // the prefix's landing place, until the buffer exists
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, err // io.EOF (clean) or io.ErrUnexpectedEOF (torn)
	}
	bodyLen := binary.LittleEndian.Uint32(lenBuf)
	if bodyLen > maxFrameBytes {
		return nil, fmt.Errorf("%w: body %d bytes", errTooLarge, bodyLen)
	}
	if bodyLen < headerBytes {
		return nil, fmt.Errorf("%w: body %d bytes", errBadHeader, bodyLen)
	}
	total := 4 + int(bodyLen) + 4 // prefix + body + trailing CRC
	step := readStep
	fb := frameBuf(min(total, step))
	buf := asBytes(fb)[1:]
	got := copy(buf, lenBuf)
	for got < total {
		if got == len(buf) {
			step *= 4
			grown := frameBuf(min(total, step))
			copy(asBytes(grown)[1:], buf)
			mpi.PutScratch(fb)
			fb, buf = grown, asBytes(grown)[1:]
		}
		n, err := io.ReadFull(r, buf[got:min(total, len(buf))])
		got += n
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	body := buf[4 : total-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[total-4:]) {
		return nil, errCRC
	}
	if body[0] != frameVersion {
		return nil, fmt.Errorf("%w: %d", errVersion, body[0])
	}
	*f = frame{
		kind:  frameKind(body[1]),
		comm:  int32(binary.LittleEndian.Uint32(body[2:])),
		src:   int32(binary.LittleEndian.Uint32(body[6:])),
		dst:   int32(binary.LittleEndian.Uint32(body[10:])),
		tag:   int32(binary.LittleEndian.Uint32(body[14:])),
		msgID: int64(binary.LittleEndian.Uint64(body[18:])),
		seq:   binary.LittleEndian.Uint64(body[26:]),
		ack:   binary.LittleEndian.Uint64(body[34:]),
		wire:  buf[:total-4],
		buf:   fb,
	}
	if bodyLen > headerBytes {
		f.payload = buf[payloadOff : total-4 : total-4]
	}
	return f, nil
}
