// Package nettrans is a socket transport for mpi worlds: ranks spread
// over OS processes connected by TCP or Unix-domain sockets in a star
// around process 0 (the hub). Frames are length-prefixed and
// CRC32-checked; every link carries sequence numbers, cumulative acks and
// a bounded replay buffer, so a dropped, corrupted, duplicated or
// reordered frame — injected by the wire fault layer or inflicted by a
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
)

// frameKind enumerates the wire frame types.
type frameKind uint8

const (
	// kindData carries one mpi point-to-point message.
	kindData frameKind = 1 + iota
	// kindHello opens (or reopens) a worker→hub link: payload carries the
	// worker's proc id, epoch, world size and plan fingerprint hash; the
	// ack field carries the worker's receive cursor for replay.
	kindHello
	// kindHelloAck accepts or rejects a hello; the ack field carries the
	// hub's receive cursor for that worker.
	kindHelloAck
	// kindStart announces that every live process joined the epoch: ranks
	// may run.
	kindStart
	// kindHeartbeat is the periodic liveness probe; its ack field
	// piggybacks the cumulative receive cursor.
	kindHeartbeat
	// kindLost broadcasts world ranks whose functions failed (culprits),
	// so every process tears down with the same attribution.
	kindLost
	// kindDone carries one process's end-of-attempt outcome to the hub.
	kindDone
	// kindVerdict broadcasts the hub's world-agreed outcome for the epoch.
	kindVerdict
)

func (k frameKind) String() string {
	switch k {
	case kindData:
		return "data"
	case kindHello:
		return "hello"
	case kindHelloAck:
		return "helloack"
	case kindStart:
		return "start"
	case kindHeartbeat:
		return "heartbeat"
	case kindLost:
		return "lost"
	case kindDone:
		return "done"
	case kindVerdict:
		return "verdict"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// frame is one wire unit. Data frames fill comm/src/dst/tag/msgID;
// control frames use the payload (and the ack piggyback all frames
// carry). seq is non-zero only on reliable kinds (data, lost, done,
// verdict, start) — those are buffered for replay until acked;
// handshake and heartbeat frames ride outside the sequence space.
type frame struct {
	kind     frameKind
	comm     int32
	src, dst int32
	tag      int32
	msgID    int64
	seq      uint64
	ack      uint64
	payload  []byte
	// wire, when non-nil, is a buffer in wire layout with the payload
	// already in place behind room for the length prefix and header
	// (newWire): encoding such a frame stamps the header and the CRC around
	// the payload instead of copying it. A data frame is built this way by
	// its sender, and readFrame keeps the buffer it read into, so the hub's
	// forward leg re-stamps a frame without copying it either.
	wire []byte
}

// Wire layout: u32 body length | body | u32 CRC32-IEEE(body).
// Body: u8 version | u8 kind | i32 comm | i32 src | i32 dst | i32 tag |
// i64 msgID | u64 seq | u64 ack | payload. All little-endian.
const (
	// frameVersion 2: the payload is one of the three kinds of payload.go.
	// Version 1 (thirteen kinds, no length check on the payload) is refused
	// with errVersion.
	frameVersion = 2
	headerBytes  = 1 + 1 + 4 + 4 + 4 + 4 + 8 + 8 + 8
	payloadOff   = 4 + headerBytes
	// maxFrameBytes bounds a body so a corrupted length prefix cannot
	// drive an unbounded allocation. Slab-scale reductions stay far below
	// this (a 1 GiB payload would be rejected at encode time too).
	maxFrameBytes = 1 << 30
	// readStep is the most readFrame allocates on the word of a length
	// prefix alone; beyond it the buffer doubles as bytes actually arrive.
	readStep = 64 << 10
)

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

// encodeFrame returns f's wire form: around f.wire when the payload is
// already in place there, around a copy of f.payload otherwise.
func encodeFrame(f *frame) []byte {
	buf := f.wire
	if buf == nil {
		buf = append(newWire(len(f.payload)), f.payload...)
	}
	body := buf[4:] // the offsets below are readFrame's
	binary.LittleEndian.PutUint32(buf, uint32(len(body)))
	body[0], body[1] = frameVersion, byte(f.kind)
	binary.LittleEndian.PutUint32(body[2:], uint32(f.comm))
	binary.LittleEndian.PutUint32(body[6:], uint32(f.src))
	binary.LittleEndian.PutUint32(body[10:], uint32(f.dst))
	binary.LittleEndian.PutUint32(body[14:], uint32(f.tag))
	binary.LittleEndian.PutUint64(body[18:], uint64(f.msgID))
	binary.LittleEndian.PutUint64(body[26:], f.seq)
	binary.LittleEndian.PutUint64(body[34:], f.ack)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// readFrame decodes the next frame from r, reading exactly its bytes.
// io.EOF means a clean between-frames cut; io.ErrUnexpectedEOF a torn
// tail; errCRC a body whose checksum does not match (corruption in
// flight). The length prefix is four untrusted bytes: the buffer starts at
// no more than readStep and doubles only as bytes arrive, so what a
// connection can make this process allocate is bounded by what it sends.
func readFrame(r io.Reader) (*frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF (clean) or io.ErrUnexpectedEOF (torn)
	}
	bodyLen := binary.LittleEndian.Uint32(lenBuf[:])
	if bodyLen > maxFrameBytes {
		return nil, fmt.Errorf("%w: body %d bytes", errTooLarge, bodyLen)
	}
	if bodyLen < headerBytes {
		return nil, fmt.Errorf("%w: body %d bytes", errBadHeader, bodyLen)
	}
	total := 4 + int(bodyLen) + 4 // prefix + body + trailing CRC
	buf := append(make([]byte, 0, min(total, readStep)), lenBuf[:]...)
	for len(buf) < total {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(total, 2*cap(buf))), buf...)
		}
		n, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
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
	f := &frame{
		kind:  frameKind(body[1]),
		comm:  int32(binary.LittleEndian.Uint32(body[2:])),
		src:   int32(binary.LittleEndian.Uint32(body[6:])),
		dst:   int32(binary.LittleEndian.Uint32(body[10:])),
		tag:   int32(binary.LittleEndian.Uint32(body[14:])),
		msgID: int64(binary.LittleEndian.Uint64(body[18:])),
		seq:   binary.LittleEndian.Uint64(body[26:]),
		ack:   binary.LittleEndian.Uint64(body[34:]),
		wire:  buf[:total-4],
	}
	if bodyLen > headerBytes {
		f.payload = buf[payloadOff : total-4 : total-4]
	}
	return f, nil
}
