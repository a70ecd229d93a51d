// Package transport is DCert's wire transport plane: a dependency-free,
// length-prefixed TCP protocol that exposes the same Publish/Subscribe topic
// semantics as the in-process network.Bus, plus a request/response RPC path
// for queries and certificate catch-up. A Server bridges real sockets onto
// an in-process hub bus, so the node's issuers, responders, and query
// services — and the seeded fault-injection fabric — run unchanged while
// remote clients speak the protocol over loopback or a real network. A
// Client implements network.Bus over one connection, so followers and query
// requesters work identically against either fabric.
//
// The frame discipline reuses the storage engine's codec conventions
// (big-endian length prefix + CRC32C over the body), and the listener is
// TLS-ready: hand ServerConfig/Dial a *tls.Config and every frame rides an
// encrypted stream with zero protocol changes.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame layout (big-endian), after the storage segment log's discipline:
//
//	[4B body length][4B CRC32C of body][body: 1B kind + payload]
//
// A frame is the unit of both integrity and flow: every protocol message —
// handshake, subscribe, publish, RPC — is exactly one frame, so a corrupt
// or truncated frame is detected before any message field is parsed.

// Frame errors.
var (
	// ErrFrameTooLarge is returned when a length prefix exceeds the limit.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrFrameCorrupt is returned when a frame's CRC does not match its body.
	ErrFrameCorrupt = errors.New("transport: frame CRC mismatch")
	// ErrFrameTruncated is returned when a buffer ends mid-frame.
	ErrFrameTruncated = errors.New("transport: truncated frame")
	// ErrFrameEmpty is returned for a zero-length body (every message has at
	// least its kind byte).
	ErrFrameEmpty = errors.New("transport: empty frame body")
)

// crcTable is the Castagnoli polynomial, matching the storage engine.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-frame framing overhead.
const frameHeaderSize = 8

// frameReadChunk is the most readFrame allocates for a body before any of
// it has arrived.
const frameReadChunk = 64 << 10

// MaxFrameSize bounds a frame body. It must admit the largest legitimate
// message (a full block or a multi-entry query proof); 16 MiB is far above
// any DCert payload while keeping a hostile length prefix from ballooning
// allocations.
const MaxFrameSize = 16 << 20

// AppendFrame appends one framed body to dst and returns the extended slice.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// DecodeFrame decodes the first frame in buf, returning its body and the
// total bytes consumed. It is a pure function over bytes (the fuzz target);
// the streaming reader below layers io on top of the same checks.
func DecodeFrame(buf []byte) (body []byte, n int, err error) {
	if len(buf) < frameHeaderSize {
		return nil, 0, ErrFrameTruncated
	}
	size := binary.BigEndian.Uint32(buf[:4])
	if size == 0 {
		return nil, 0, ErrFrameEmpty
	}
	if size > MaxFrameSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	if len(buf) < frameHeaderSize+int(size) {
		return nil, 0, ErrFrameTruncated
	}
	want := binary.BigEndian.Uint32(buf[4:8])
	body = buf[frameHeaderSize : frameHeaderSize+int(size)]
	if crc32.Checksum(body, crcTable) != want {
		return nil, 0, ErrFrameCorrupt
	}
	return body, frameHeaderSize + int(size), nil
}

// writeFrame writes one framed body in a single Write call, so a frame is
// never interleaved with another writer's bytes on the same stream.
func writeFrame(w io.Writer, body []byte) error {
	buf := AppendFrame(make([]byte, 0, frameHeaderSize+len(body)), body)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// readFrame reads exactly one frame from r. Unlike the storage log's opener
// — which truncates a torn tail and carries on — a wire peer that sends a
// corrupt or oversized frame is faulty or hostile, so the error is terminal
// for the connection.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 {
		return nil, ErrFrameEmpty
	}
	if size > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	want := binary.BigEndian.Uint32(hdr[4:8])
	// The length prefix is the peer's claim, not bytes received: allocate
	// at most frameReadChunk up front and double as the body arrives, so a
	// header that claims MaxFrameSize and then stalls costs 64 KiB, not
	// 16 MiB. Frames up to frameReadChunk still allocate once.
	body := make([]byte, min(int(size), frameReadChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, fmt.Errorf("transport: short frame body: %w", err)
		}
		if have = len(body); have == int(size) {
			break
		}
		grow := min(int(size)-have, have)
		body = slices.Grow(body, grow)[:have+grow]
	}
	if crc32.Checksum(body, crcTable) != want {
		return nil, ErrFrameCorrupt
	}
	return body, nil
}
