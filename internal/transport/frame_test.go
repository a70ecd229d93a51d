package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadFrameAllocatesAsBytesArrive: the length prefix is the peer's
// claim, so a header that claims MaxFrameSize and then ends must not cost
// the claimed 16 MiB — any TCP peer reaches readFrame through the
// unauthenticated handshake.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrameSize)
	hdr = binary.BigEndian.AppendUint32(hdr, 0)
	const runs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := readFrame(bytes.NewReader(hdr)); err == nil {
			t.Fatal("a header with no body was accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= 128<<10 {
		t.Fatalf("a bodiless MaxFrameSize header allocated %d bytes, want < %d", perRead, 128<<10)
	}
}

// TestReadFrameRoundTripsAcrossChunks: bodies at, just past and far past
// the first read chunk come back byte for byte.
func TestReadFrameRoundTripsAcrossChunks(t *testing.T) {
	for _, size := range []int{1, frameReadChunk, frameReadChunk + 1, 3 * frameReadChunk, 1 << 20} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i*31 + i>>8)
		}
		got, err := readFrame(bytes.NewReader(AppendFrame(nil, body)))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("size %d: body changed in transit", size)
		}
		if _, err := readFrame(bytes.NewReader(AppendFrame(nil, body)[:frameHeaderSize+size-1])); err == nil {
			t.Fatalf("size %d: a frame one byte short was accepted", size)
		}
	}
}
