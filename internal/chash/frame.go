package chash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The record frame is DCert's one framing, for every transport message on
// the wire and every segment-log record on disk (big-endian):
//
//	[4B body length][4B CRC32C of body][body: 1B kind or tag + payload]
//
// Each user passes its own body limit. A corrupt, truncated, empty or
// oversized frame is refused before any of its body is parsed.

// FrameHeaderSize is the per-frame overhead: the body length and its CRC.
const FrameHeaderSize = 8

// Frame errors.
var (
	// ErrFrameTooLarge is returned when a length prefix exceeds the limit.
	ErrFrameTooLarge = errors.New("chash: frame exceeds size limit")
	// ErrFrameCorrupt is returned when a frame's CRC does not match its body.
	ErrFrameCorrupt = errors.New("chash: frame CRC mismatch")
	// ErrFrameTruncated is returned when a buffer ends mid-frame.
	ErrFrameTruncated = errors.New("chash: truncated frame")
	// ErrFrameEmpty is returned for a zero-length body (every frame has at
	// least its kind or tag byte).
	ErrFrameEmpty = errors.New("chash: empty frame body")
)

// frameReadChunk is the most ReadFrame allocates for a body before any of
// it has arrived.
const frameReadChunk = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of the concatenation of parts.
func Checksum(parts ...[]byte) uint32 {
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// PutFrameHeader writes the header of a frame whose body is the
// concatenation of parts, so a writer can send the header and the parts
// without joining them.
func PutFrameHeader(hdr *[FrameHeaderSize]byte, parts ...[]byte) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(size))
	binary.BigEndian.PutUint32(hdr[4:], Checksum(parts...))
}

// AppendFrame appends one frame whose body is the concatenation of parts to
// dst and returns the extended slice.
func AppendFrame(dst []byte, parts ...[]byte) []byte {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(&hdr, parts...)
	dst = append(dst, hdr[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// frameSize checks a header's length prefix against limit.
func frameSize(hdr []byte, limit int) (int, error) {
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 {
		return 0, ErrFrameEmpty
	}
	if uint64(size) > uint64(limit) {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	return int(size), nil
}

// DecodeFrame decodes the frame at the head of buf, whose body may be at
// most limit bytes, returning the body (aliasing buf) and the total bytes
// consumed.
func DecodeFrame(buf []byte, limit int) (body []byte, n int, err error) {
	if len(buf) < FrameHeaderSize {
		return nil, 0, ErrFrameTruncated
	}
	size, err := frameSize(buf, limit)
	if err != nil {
		return nil, 0, err
	}
	if len(buf)-FrameHeaderSize < size {
		return nil, 0, ErrFrameTruncated
	}
	body = buf[FrameHeaderSize : FrameHeaderSize+size]
	if Checksum(body) != binary.BigEndian.Uint32(buf[4:8]) {
		return nil, 0, ErrFrameCorrupt
	}
	return body, FrameHeaderSize + size, nil
}

// ReadFrame reads exactly one frame, whose body may be at most limit bytes,
// from r and returns its body. An error reading the header is returned
// unwrapped, so a clean end of stream is io.EOF.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size, err := frameSize(hdr[:], limit)
	if err != nil {
		return nil, err
	}
	// The length prefix is the sender's claim, not bytes received: allocate
	// at most frameReadChunk up front and double as the body arrives, so a
	// header that claims the limit and then stalls costs 64 KiB. Frames up
	// to frameReadChunk still allocate once.
	body := make([]byte, min(size, frameReadChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, fmt.Errorf("chash: short frame body: %w", err)
		}
		if have = len(body); have == size {
			break
		}
		grow := min(size-have, have)
		body = slices.Grow(body, grow)[:have+grow]
	}
	if Checksum(body) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, ErrFrameCorrupt
	}
	return body, nil
}
