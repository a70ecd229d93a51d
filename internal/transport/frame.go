// Package transport is DCert's wire transport plane: a dependency-free,
// length-prefixed TCP protocol that exposes the same Publish/Subscribe topic
// semantics as the in-process network.Bus, plus a request/response RPC path
// for queries and certificate catch-up. A Server bridges real sockets onto
// an in-process hub bus, so the node's certificate stream — and the seeded
// fault-injection fabric — run unchanged while remote clients speak the
// protocol over loopback or a real network. A Client implements network.Bus
// over one connection, so followers work identically against either fabric.
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
	"net"
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

// smallFrame is the largest frame (header included) the writer copies into
// one contiguous write. A larger frame on a plain TCP connection goes out as
// one vectored write — frame header and message head, then the caller's
// body — so a big handler response is never copied on its way out.
const smallFrame = 4 << 10

// readBufferSize is each connection's buffered-reader size: many small
// frames come off the socket in one read, while a body larger than the
// buffer is read straight into its own allocation.
const readBufferSize = 4 << 10

// frameWriter writes whole frames onto one connection. A frame is one write
// call (or one vectored write), so it is never interleaved with another
// writer's bytes on the stream; callers serialize write. Its memory is
// bounded: scratch holds at most one small frame.
type frameWriter struct {
	conn net.Conn
	// vectored is set for a plain TCP connection, which takes writev. Any
	// other connection, TLS in particular, gets every frame in one Write
	// (one TLS record rather than one per part).
	vectored bool
	hdr      [frameHeaderSize]byte
	scratch  []byte
	iov      [3][]byte
	bufs     net.Buffers
}

func newFrameWriter(conn net.Conn) *frameWriter {
	_, vectored := conn.(*net.TCPConn)
	return &frameWriter{conn: conn, vectored: vectored}
}

// write sends one frame whose body is head ‖ body. A small frame is copied
// into scratch and written once; a large one is written vectored without a
// copy, or, on a connection without writev, copied once into its own buffer.
func (w *frameWriter) write(head, body []byte) error {
	size := len(head) + len(body)
	binary.BigEndian.PutUint32(w.hdr[:4], uint32(size))
	binary.BigEndian.PutUint32(w.hdr[4:], crc32.Update(crc32.Checksum(head, crcTable), crcTable, body))
	var err error
	switch {
	case frameHeaderSize+size <= smallFrame:
		w.scratch = append(append(append(w.scratch[:0], w.hdr[:]...), head...), body...)
		_, err = w.conn.Write(w.scratch)
	case w.vectored:
		// WriteTo consumes bufs and clears iov's entries as they are sent,
		// so the writer keeps no reference to head or body.
		w.iov = [3][]byte{w.hdr[:], head, body}
		w.bufs = w.iov[:]
		_, err = w.bufs.WriteTo(w.conn)
	default:
		_, err = w.conn.Write(slices.Concat(w.hdr[:], head, body))
	}
	if err != nil {
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
