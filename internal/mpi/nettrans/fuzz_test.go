package nettrans

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"distfdk/internal/alloctest"
)

// The fuzz targets' invariant, for both parsers of untrusted bytes: a typed
// error or an exact round trip — never a panic, a hang, or an allocation
// beyond a small multiple of the input. Their seeds run in every `go test`;
// `make fuzz-smoke` mutates from them for 10 s per target.

// allocBound is what parsing n input bytes may allocate: the buffers grown
// as bytes arrived, at most a few times those bytes, plus the first
// readStep taken on the length prefix's word, plus the values decoded.
func allocBound(n int) uint64 { return uint64(8*n + 4*readStep) }

// chunkReader hands out its bytes first in a chunk of lead bytes, then in
// chunks of four: reads that end at every phase of the reader's 4-byte
// words.
type chunkReader struct {
	b    []byte
	lead int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.b), 4)
	if c.lead > 0 {
		n = min(len(p), len(c.b), c.lead)
		c.lead = 0
	}
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

// sameRead reports whether two readFrame outcomes are one: the same error,
// or frames equal field for field with the same payload bytes.
func sameRead(a *frame, aErr error, b *frame, bErr error) bool {
	if aErr != nil || bErr != nil {
		return errors.Is(bErr, aErr) || aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return a.kind == b.kind && a.comm == b.comm && a.src == b.src && a.dst == b.dst && a.tag == b.tag &&
		a.msgID == b.msgID && a.seq == b.seq && a.ack == b.ack && bytes.Equal(a.payload, b.payload)
}

// frameSeeds returns valid frames of every kind and the ways the wire
// breaks them.
func frameSeeds() [][]byte {
	floats := appendPayload(nil, []float32{1.5, -2.25, 3}, nil)
	var seeds [][]byte
	for k := kindData; k <= kindCredit; k++ {
		f := &frame{kind: k, comm: 7, src: 3, dst: 1, tag: -3, msgID: 1 << 40, seq: 42, ack: 17,
			payload: encodeInts(1, int(k), -9)}
		if k == kindData {
			f.payload = floats
		}
		if k == kindHeartbeat || k == kindCredit {
			f.payload = nil
		}
		seeds = append(seeds, encodeFrame(f))
	}
	data := seeds[0]
	seeds = append(seeds, append(append([]byte(nil), data...), seeds[1]...)) // two frames back to back
	// Torn inside the prefix, at every header field boundary, in the
	// payload and in the CRC.
	for _, cut := range []int{0, 1, 3, 4, 5, 6, 10, 14, 18, 22, 30, 38, 46, 47, 51, len(data) - 5, len(data) - 4, len(data) - 1} {
		seeds = append(seeds, data[:cut])
	}
	for _, pos := range []int{4, 5, 30, payloadOff, payloadOff + 1, len(data) - 1} { // CRC-flipped
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		seeds = append(seeds, mut)
	}
	v1 := append([]byte(nil), data...) // a version-1 frame, CRC valid
	v1[4] = 1
	putU32(v1[len(v1)-4:], crc32ChecksumIEEE(v1[4:len(v1)-4]))
	seeds = append(seeds, v1,
		[]byte{0xff, 0xff, 0xff, 0xff, 2, 1},             // prefix over the bound
		[]byte{0xff, 0xff, 0xff, 0x3f, 2, 1, 0, 0},       // prefix at the bound, then EOF
		[]byte{1, 0, 0, 0x40, 2, 1},                      // one past the bound
		[]byte{5, 0, 0, 0, 2, 1, 2, 3, 4, 0, 0, 0, 0},    // body shorter than a header
		append(append([]byte(nil), data...), 0xde, 0xad)) // odd byte tail
	return seeds
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var fr *frame
		var err error
		if got := alloctest.AllocatedBy(func() { fr, err = readFrame(bytes.NewReader(b)) }); got > allocBound(len(b)) {
			t.Fatalf("%d input bytes allocated %d", len(b), got)
		}
		// However the bytes arrive, the frame is the same.
		readers := []io.Reader{iotest.OneByteReader(bytes.NewReader(b))}
		for lead := 1; lead <= 4; lead++ {
			readers = append(readers, &chunkReader{b: b, lead: lead})
		}
		for i, r := range readers {
			if got, gotErr := readFrame(r); !sameRead(fr, err, got, gotErr) {
				t.Fatalf("reader %d: read %+v, %v; in one piece %+v, %v", i, got, gotErr, fr, err)
			}
		}
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, errCRC) &&
				!errors.Is(err, errVersion) && !errors.Is(err, errTooLarge) && !errors.Is(err, errBadHeader) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		// Accepted: re-encoding the decoded fields reproduces the consumed
		// bytes, both from a copy of the payload and around the read buffer.
		cp := *fr
		cp.wire = nil
		want := b[:payloadOff+len(fr.payload)+4]
		if enc := encodeFrame(&cp); !bytes.Equal(enc, want) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", enc, want)
		}
		if enc := encodeFrame(fr); !bytes.Equal(enc, want) {
			t.Fatalf("re-stamped frame differs:\n got %x\nwant %x", enc, want)
		}
	})
}

func FuzzDecodePayload(f *testing.F) {
	floats := appendPayload(nil, []float32{1.5, -2.25, 3}, nil)
	ints := encodeInts(-5, 0, 1<<40)
	for _, s := range [][]byte{
		{ptNil}, floats, ints, appendPayload(nil, []float32{}, nil), encodeInts(),
		{}, {ptNil, 0}, {ptInts + 1, 0, 0, 0, 0}, {ptFloat32s}, {ptFloat32s, 1, 0}, // torn before the count ends
		floats[:len(floats)-1], floats[:len(floats)-4], ints[:len(ints)-3], // count larger than the bytes left
		append(floats[:len(floats):len(floats)], 7), append(ints[:len(ints):len(ints)], 1, 2, 3, 4), // odd byte tails
		{ptFloat32s, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, {ptInts, 0xff, 0xff, 0xff, 0xff}, // huge counts
		{ptFloat32s, 1, 0, 0, 0, 1, 2, 3}, {ptFloat32s, 1, 0, 0, 0, 1, 2, 3, 4, 5}, // odd-length float bodies
		{ptFloat32s, 2, 0, 0, 0, 1, 2, 3, 4}, {ptFloat32s, 0, 0, 0, 0, 1, 2, 3, 4}, // counts off the bytes by one
		{ptFloat32s, 1, 0, 0, 0}, {ptInts, 1, 0, 0, 0, 1, 2, 3, 4}, // a count with no or too few bytes behind it
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var data []float32
		var ctl []int
		var err error
		b = floatAligned(b)
		if got := alloctest.AllocatedBy(func() { data, ctl, err = decodePayload(b) }); got > allocBound(len(b)) {
			t.Fatalf("%d input bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		if data != nil && ctl != nil {
			t.Fatalf("payload decoded to both data %v and ctl %v", data, ctl)
		}
		if enc := appendPayload(nil, data, ctl); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoded payload differs:\n got %x\nwant %x", enc, b)
		}
	})
}

// floatAligned copies a payload to where readFrame puts one: its float body
// (after the kind and count) on a 4-byte boundary.
func floatAligned(b []byte) []byte {
	return append(asBytes(make([]float32, len(b)/4+2))[3:3], b...)
}
