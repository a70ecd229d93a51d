package chash

import (
	"bytes"
	"errors"
	"testing"
)

// TestReadFrameRoundTripsAcrossChunks: bodies at, just past and far past
// the first read chunk come back byte for byte.
func TestReadFrameRoundTripsAcrossChunks(t *testing.T) {
	for _, size := range []int{1, frameReadChunk, frameReadChunk + 1, 3 * frameReadChunk, 1 << 20} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i*31 + i>>8)
		}
		got, err := ReadFrame(bytes.NewReader(AppendFrame(nil, body)), 1<<20)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("size %d: body changed in transit", size)
		}
		if _, err := ReadFrame(bytes.NewReader(AppendFrame(nil, body)[:FrameHeaderSize+size-1]), 1<<20); err == nil {
			t.Fatalf("size %d: a frame one byte short was accepted", size)
		}
	}
}

// TestFrameOverPartsIsTheFrameOverTheirJoin: a frame built over several
// parts is byte-identical to the frame over their concatenation, and both
// decoders refuse a body past the caller's limit.
func TestFrameOverPartsIsTheFrameOverTheirJoin(t *testing.T) {
	tag, payload := []byte{7}, []byte("payload")
	frame := AppendFrame(nil, tag, payload)
	if !bytes.Equal(frame, AppendFrame(nil, []byte("\x07payload"))) {
		t.Fatal("a frame over two parts differs from the frame over their join")
	}
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(&hdr, tag, payload)
	if !bytes.Equal(hdr[:], frame[:FrameHeaderSize]) {
		t.Fatal("PutFrameHeader differs from AppendFrame's header")
	}
	body, n, err := DecodeFrame(frame, 8)
	if err != nil || n != len(frame) || !bytes.Equal(body, []byte("\x07payload")) {
		t.Fatalf("DecodeFrame = %q, %d, %v", body, n, err)
	}
	if _, _, err := DecodeFrame(frame, 7); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame past its limit: %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame), 7); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame past its limit: %v, want ErrFrameTooLarge", err)
	}
}

// TestCountBoundsByLimitAndBytesLeft: a count is returned only within its
// limit and only if that many minimum-size elements fit in what is left.
func TestCountBoundsByLimitAndBytesLeft(t *testing.T) {
	enc := func(n uint32, left int) *Decoder {
		e := NewEncoder(4 + left)
		e.PutUint32(n)
		e.buf = append(e.buf, make([]byte, left)...)
		return NewDecoder(e.Bytes())
	}
	for _, tc := range []struct {
		n                    uint32
		left, limit, minSize int
		ok                   bool
	}{
		{n: 3, left: 12, limit: 8, minSize: 4, ok: true},
		{n: 3, left: 11, limit: 8, minSize: 4},
		{n: 9, left: 100, limit: 8, minSize: 4},
		{n: 1 << 31, left: 0, limit: 1 << 32, minSize: 0, ok: true},
		{n: 1<<32 - 1, left: 16, limit: 1 << 40, minSize: 8},
	} {
		got, err := enc(tc.n, tc.left).Count(tc.limit, tc.minSize)
		if tc.ok != (err == nil) || (tc.ok && got != int(tc.n)) {
			t.Errorf("Count(%d, %d) of %d with %d bytes left = %d, %v", tc.limit, tc.minSize, tc.n, tc.left, got, err)
		}
		if err != nil && !errors.Is(err, ErrOversized) {
			t.Errorf("refused count: %v, want ErrOversized", err)
		}
	}
	e := NewEncoder(8)
	e.PutUint64(1 << 62)
	if _, err := NewDecoder(e.Bytes()).Count64(1<<62, 1); !errors.Is(err, ErrOversized) {
		t.Fatalf("Count64 of 2^62 over no bytes: %v, want ErrOversized", err)
	}
}
