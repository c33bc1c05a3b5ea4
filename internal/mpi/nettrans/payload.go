package nettrans

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// bit-identical to one in process. A payload's length must be exactly what
// its kind and count imply: there is one encoding per value, and a count
// larger than the bytes behind it is refused before anything is allocated.
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
		off := len(buf)
		buf = slices.Grow(buf, 4*len(data))[:off+4*len(data)]
		body := buf[off:]
		for i, x := range data {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(x))
		}
	default:
		buf = append(buf, ptNil)
	}
	return buf
}

// decodePayload is appendPayload's inverse: an empty slice stays empty and
// non-nil, so encode(decode(b)) == b for every b it accepts.
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
	if kind == ptInts {
		ctl = make([]int, n)
		for i := range ctl {
			ctl[i] = int(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return nil, ctl, nil
	}
	data = make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return data, nil, nil
}
