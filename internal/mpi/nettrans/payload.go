package nettrans

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"distfdk/internal/mpi"
)

// Payload codec, wire version 2: what an mpi.Message may carry — nothing, a
// float32 slab segment, or control ints (Split's formation exchange and
// this package's own control frames). All little-endian:
//
//	ptNil      | (nothing)
//	ptFloat32s | u32 n | n × u32 IEEE-754 bit pattern
//	ptInts     | u32 n | n × u64 two's complement
//
// Floats travel by bit pattern, so a reduction over sockets is
// bit-identical to one in process. On a little-endian target (the only kind
// this package builds for, see bigendian.go) a float body's wire bytes are
// its memory, so floats are written from and read into place. A payload's
// length must be exactly what its kind and count imply: there is one
// encoding per value, and a count larger than the bytes behind it is
// refused before anything is allocated.
const (
	ptNil uint8 = iota
	ptFloat32s
	ptInts
)

// payloadLen is the encoded size of a message payload.
func payloadLen(data []float32, ctl []int) int {
	switch {
	case ctl != nil:
		return 5 + 8*len(ctl)
	case data != nil:
		return 5 + 4*len(data)
	}
	return 1
}

// appendPayload encodes a message payload (ctl, else data, else nothing)
// straight onto buf, which should have payloadLen bytes of room.
func appendPayload(buf []byte, data []float32, ctl []int) []byte {
	switch {
	case ctl != nil:
		buf = append(buf, ptInts)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ctl)))
		for _, x := range ctl {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case data != nil:
		buf = append(buf, ptFloat32s)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
		buf = append(buf, asBytes(data)...)
	default:
		buf = append(buf, ptNil)
	}
	return buf
}

// decodePayload is appendPayload's inverse: an empty slice stays empty and
// non-nil, so encode(decode(b)) == b for every b it accepts. A float body is
// returned in place, as a view of b.
func decodePayload(b []byte) (data []float32, ctl []int, err error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("nettrans: empty payload")
	}
	kind, width := b[0], 0
	switch kind {
	case ptNil:
		if len(b) != 1 {
			return nil, nil, fmt.Errorf("nettrans: nil payload with %d trailing bytes", len(b)-1)
		}
		return nil, nil, nil
	case ptFloat32s:
		width = 4
	case ptInts:
		width = 8
	default:
		return nil, nil, fmt.Errorf("nettrans: unknown payload kind %d", kind)
	}
	if len(b) < 5 {
		return nil, nil, fmt.Errorf("nettrans: payload truncated at byte %d", len(b))
	}
	n, body := int(binary.LittleEndian.Uint32(b[1:])), b[5:]
	if len(body)%width != 0 || len(body)/width != n {
		return nil, nil, fmt.Errorf("nettrans: payload declares %d elements of %d bytes with %d bytes left", n, width, len(body))
	}
	if kind == ptFloat32s {
		return asFloats(body), nil, nil
	}
	ctl = make([]int, n)
	for i := range ctl {
		ctl[i] = int(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return nil, ctl, nil
}

// message is the mpi.Message a delivered data frame carries. Its floats
// slide to the front of the frame's arena buffer, which becomes Data: from
// there the receiver returns it to the class it came from, however often
// it is reused (a 36 KiB slide costs a sixth of its CRC).
func (f *frame) message() (mpi.Message, error) {
	data, ctl, err := decodePayload(f.payload)
	if err != nil {
		return mpi.Message{}, err
	}
	if data != nil {
		data = f.buf[:copy(f.buf, data)]
		f.buf = nil
	}
	return mpi.Message{Tag: int(f.tag), ID: f.msgID, Data: data, Ctl: ctl}, nil
}

// asBytes is s's memory as bytes.
func asBytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// asFloats is b's memory as float32s (non-nil when b is); b's length is a
// multiple of 4, and b starts on a 4-byte boundary where readFrame put it.
func asFloats(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}
