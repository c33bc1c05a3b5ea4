package nettrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"

	"distfdk/internal/alloctest"
	"distfdk/internal/mpi"
)

func crc32ChecksumIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
func putU32(b []byte, v uint32)         { binary.LittleEndian.PutUint32(b, v) }

func sampleFrame() *frame {
	payload := appendPayload(nil, []float32{1.5, -2.25, float32(math.Pi)}, nil)
	return &frame{kind: kindData, comm: 7, src: 3, dst: 1, tag: -3,
		msgID: 123456789, seq: 42, ack: 17, payload: payload}
}

func mustRead(t *testing.T, b []byte) *frame {
	t.Helper()
	f, err := readFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	want := sampleFrame()
	got := mustRead(t, encodeFrame(want))
	if got.kind != want.kind || got.comm != want.comm || got.src != want.src ||
		got.dst != want.dst || got.tag != want.tag || got.msgID != want.msgID ||
		got.seq != want.seq || got.ack != want.ack || !bytes.Equal(got.payload, want.payload) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestFrameTornTailEveryOffset cuts an encoded frame at every byte offset
// and requires a typed truncation error — io.EOF only for the clean
// zero-byte cut, io.ErrUnexpectedEOF for every torn tail — never a
// mis-decoded frame.
func TestFrameTornTailEveryOffset(t *testing.T) {
	enc := encodeFrame(sampleFrame())
	for cut := 0; cut < len(enc); cut++ {
		_, err := readFrame(bytes.NewReader(enc[:cut]))
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut 0: want io.EOF, got %v", err)
			}
		case cut < 4:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut %d (inside length prefix): want ErrUnexpectedEOF, got %v", cut, err)
			}
		default:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut %d: want ErrUnexpectedEOF, got %v", cut, err)
			}
		}
	}
	// The full frame still parses after all that slicing.
	mustRead(t, enc)
}

// TestFrameCRCCorruption flips one bit at every body and CRC position and
// requires errCRC (corruption must never surface as valid data). The
// length prefix is excluded: corrupting it yields a size/truncation error
// instead, checked separately.
func TestFrameCRCCorruption(t *testing.T) {
	enc := encodeFrame(sampleFrame())
	for pos := 4; pos < len(enc); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 1 << bit
			if _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, errCRC) {
				t.Fatalf("pos %d bit %d: want errCRC, got %v", pos, bit, err)
			}
		}
	}
	// A corrupted length prefix must fail typed too — oversize, truncated
	// header, torn tail or CRC mismatch — never decode.
	for bit := 0; bit < 32; bit++ {
		mut := append([]byte(nil), enc...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := readFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("length bit %d: corrupted prefix decoded", bit)
		}
	}
}

// TestFrameStreamDuplicateAndReorder decodes a byte stream containing
// duplicated and reordered frames: the codec itself must hand each frame
// up intact and in stream order — sequence-number bookkeeping above it is
// what detects the anomaly (covered by the link tests).
func TestFrameStreamDuplicateAndReorder(t *testing.T) {
	f1, f2 := sampleFrame(), sampleFrame()
	f2.seq, f2.msgID = 43, 987
	var stream []byte
	for _, f := range []*frame{f2, f1, f1} { // reordered + duplicated
		stream = append(stream, encodeFrame(f)...)
	}
	r := bytes.NewReader(stream)
	var seqs []uint64
	for {
		f, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		seqs = append(seqs, f.seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{43, 42, 42}) {
		t.Fatalf("stream seqs = %v, want [43 42 42]", seqs)
	}
}

func TestFrameRejectsOversizeAndBadVersion(t *testing.T) {
	// Oversize declared length.
	var big [8]byte
	big[0], big[1], big[2], big[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := readFrame(bytes.NewReader(big[:])); !errors.Is(err, errTooLarge) {
		t.Fatalf("want errTooLarge, got %v", err)
	}
	// Undersized body (shorter than the fixed header).
	small := []byte{5, 0, 0, 0, 1, 2, 3, 4, 5, 0, 0, 0, 0}
	if _, err := readFrame(bytes.NewReader(small)); !errors.Is(err, errBadHeader) {
		t.Fatalf("want errBadHeader, got %v", err)
	}
	// Valid CRC but unknown version.
	enc := encodeFrame(sampleFrame())
	enc[4] = 99 // version byte
	// Recompute CRC so only the version check can object.
	body := enc[4 : len(enc)-4]
	crc := crc32ChecksumIEEE(body)
	putU32(enc[len(enc)-4:], crc)
	if _, err := readFrame(bytes.NewReader(enc)); !errors.Is(err, errVersion) {
		t.Fatalf("want errVersion, got %v", err)
	}
}

// TestPayloadRoundTrip checks everything a message can carry survives the
// wire bit-exactly, and that nothing else decodes.
func TestPayloadRoundTrip(t *testing.T) {
	floats := []float32{0, float32(math.Copysign(0, -1)), 1.25, float32(math.NaN()),
		math.Float32frombits(0x7fa00001), // a signalling NaN keeps its bits
		float32(math.Inf(1)), math.SmallestNonzeroFloat32}
	cases := []struct {
		data []float32
		ctl  []int
	}{
		{nil, nil},
		{[]float32{}, nil},
		{floats, nil},
		{nil, []int{}},
		{nil, []int{-5, 0, 1 << 40, math.MinInt64, math.MaxInt64}},
	}
	for _, in := range cases {
		enc := appendPayload(nil, in.data, in.ctl)
		if len(enc) != payloadLen(in.data, in.ctl) {
			t.Fatalf("payloadLen(%v, %v) = %d, encoded %d bytes", in.data, in.ctl, payloadLen(in.data, in.ctl), len(enc))
		}
		data, ctl, err := decodePayload(floatAligned(enc))
		if err != nil {
			t.Fatalf("decode (%v, %v): %v", in.data, in.ctl, err)
		}
		// Bit patterns are the wire contract, and nil stays distinct from
		// empty: re-encoding is the NaN-safe, nil-safe comparison.
		if !bytes.Equal(appendPayload(nil, data, ctl), enc) || !reflect.DeepEqual(ctl, in.ctl) || len(data) != len(in.data) {
			t.Fatalf("round trip (%v, %v): got (%v, %v)", in.data, in.ctl, data, ctl)
		}
		// Truncated or padded payloads fail typed, never panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := decodePayload(enc[:cut]); err == nil {
				t.Fatalf("payload (%v, %v) truncated at %d decoded", in.data, in.ctl, cut)
			}
		}
		for pad := 1; pad <= 8; pad++ {
			if _, _, err := decodePayload(append(enc[:len(enc):len(enc)], make([]byte, pad)...)); err == nil {
				t.Fatalf("payload (%v, %v) with %d trailing bytes decoded", in.data, in.ctl, pad)
			}
		}
	}
	if _, _, err := decodePayload([]byte{ptInts + 1, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown payload kind decoded")
	}
	// A corrupted element count must not drive a huge allocation.
	enc := appendPayload(nil, []float32{1}, nil)
	putU32(enc[1:], 1<<31-1)
	if _, _, err := decodePayload(enc); err == nil {
		t.Fatal("oversized element count decoded")
	}
}

// TestReadFrameAllocationTracksReceivedBytes: the length prefix is four
// untrusted bytes. A prefix one short of the 1 GiB bound followed by EOF
// must be a torn tail that cost O(readStep), not O(prefix), and a body
// that does arrive must cost a small multiple of itself.
func TestReadFrameAllocationTracksReceivedBytes(t *testing.T) {
	hostile := []byte{0xff, 0xff, 0xff, 0x3f, frameVersion, byte(kindData)}
	var err error
	got := alloctest.AllocatedBy(func() { _, err = readFrame(bytes.NewReader(hostile)) })
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("oversize prefix then EOF: want ErrUnexpectedEOF, got %v", err)
	}
	if got > 4*readStep {
		t.Fatalf("oversize prefix then EOF allocated %d bytes, want O(readStep = %d)", got, readStep)
	}

	big := encodeFrame(&frame{kind: kindData, seq: 1,
		wire: appendPayload(newWire(5+4<<20), make([]float32, 1<<20), nil)})
	var f *frame
	got = alloctest.AllocatedBy(func() { f, err = readFrame(bytes.NewReader(big)) })
	if err != nil || len(f.payload) != 5+4<<20 {
		t.Fatalf("4 MiB frame: %v", err)
	}
	if got > 3*uint64(len(big)) {
		t.Fatalf("4 MiB frame allocated %d bytes reading %d", got, len(big))
	}
	for cut := readStep - 8; cut < len(big); cut = cut*2 + 3 {
		if _, err := readFrame(bytes.NewReader(big[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d of a grown frame: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestFrameForwardReusesWire: the hub's forward leg re-stamps the buffer
// readFrame filled — new link sequence number, same payload bytes in the
// same memory.
func TestFrameForwardReusesWire(t *testing.T) {
	in := mustRead(t, encodeFrame(sampleFrame()))
	fwd := &frame{kind: in.kind, comm: in.comm, src: in.src, dst: in.dst,
		tag: in.tag, msgID: in.msgID, seq: 99, wire: in.wire}
	enc := encodeFrame(fwd)
	if &enc[0] != &in.wire[0] {
		t.Fatal("forwarding copied the frame")
	}
	out := mustRead(t, enc)
	if out.seq != 99 || out.ack != 0 || out.msgID != in.msgID || !bytes.Equal(out.payload, sampleFrame().payload) {
		t.Fatalf("forwarded frame = %+v", out)
	}
}

// roundTrip sends data as a data frame through w (the sealed parts, as the
// link writes them) and reads it back, delivering the message.
func roundTrip(w *bytes.Buffer, data []float32) (mpi.Message, error) {
	w.Reset()
	f := &frame{kind: kindData, seq: 1, data: data}
	for _, p := range f.seal() {
		w.Write(p)
	}
	got, err := readFrame(w)
	if err != nil {
		return mpi.Message{}, err
	}
	return got.message()
}

// BenchmarkFrameCodec is the frame codec's ledger row: one []float32 data
// frame through the sender's path (header and CRC sealed around the
// sender's floats, written as one writev would) and the receiver's (read
// into an arena buffer, CRC, delivered in place and returned to the arena)
// — the per-message work of a socket world minus the socket.
func BenchmarkFrameCodec(b *testing.B) {
	for _, bc := range []struct {
		name  string
		elems int
	}{{"36KiB", 96 * 96}, {"8MiB", 2 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			data := make([]float32, bc.elems)
			for i := range data {
				data[i] = float32(i) * 0.5
			}
			var w bytes.Buffer
			b.SetBytes(int64(4 * bc.elems))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := roundTrip(&w, data)
				if err != nil || len(m.Data) != len(data) {
					b.Fatalf("round trip: %v", err)
				}
				mpi.PutScratch(m.Data)
			}
		})
	}
}
