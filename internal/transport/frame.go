// Package transport is DCert's wire transport plane: a dependency-free,
// length-prefixed TCP protocol over which remote peers read a node and never
// write to it. A peer subscribes to the node's topics with the same queue
// semantics as the in-process network bus, and calls request/response RPCs
// for queries and certificate catch-up. A Server forwards an in-process hub's
// deliveries onto real sockets, so the node's certificate stream — and the
// seeded fault-injection fabric — run unchanged while remote clients speak
// the protocol over loopback or a real network; every publish is made on the
// hub, by the node. A Client is a network.Subscriber over one connection, so
// followers work identically against either fabric.
//
// Every protocol message — handshake, subscribe, delivery, RPC — is exactly
// one chash record frame whose body is a 1-byte kind and the message, so a
// corrupt or truncated frame is detected before any message field is
// parsed. The listener is TLS-ready: hand ServerConfig/Dial a *tls.Config
// and every frame rides an encrypted stream with zero protocol changes.
package transport

import (
	"fmt"
	"net"
	"slices"

	"dcert/internal/chash"
)

// MaxFrameSize bounds a frame body. It must admit the largest legitimate
// message (a full block or a multi-entry query proof); 16 MiB is far above
// any DCert payload while keeping a hostile length prefix from ballooning
// allocations.
const MaxFrameSize = 16 << 20

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
	hdr      [chash.FrameHeaderSize]byte
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
	chash.PutFrameHeader(&w.hdr, head, body)
	var err error
	switch {
	case chash.FrameHeaderSize+len(head)+len(body) <= smallFrame:
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
