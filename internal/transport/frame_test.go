package transport

import (
	"bufio"
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"io"
	"math/big"
	"net"
	"runtime"
	"testing"
	"time"

	"dcert/internal/chash"
)

// TestReadFrameAllocatesAsBytesArrive: the length prefix is the peer's
// claim, so a header that claims MaxFrameSize and then ends must not cost
// the claimed 16 MiB — any TCP peer reaches chash.ReadFrame through the
// unauthenticated handshake.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrameSize)
	hdr = binary.BigEndian.AppendUint32(hdr, 0)
	const runs = 8
	// Bare, and through the buffered reader every connection reads with.
	for _, wrap := range []func(io.Reader) io.Reader{
		func(r io.Reader) io.Reader { return r },
		func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, readBufferSize) },
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := chash.ReadFrame(wrap(bytes.NewReader(hdr)), MaxFrameSize); err == nil {
				t.Fatal("a header with no body was accepted")
			}
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= 128<<10 {
			t.Fatalf("a bodiless MaxFrameSize header allocated %d bytes, want < %d", perRead, 128<<10)
		}
	}
}

// countingReader counts the reads that reach the underlying stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadFrameBufferedBackToBack: two frames that arrive together come
// back, each whole, from one read of the stream through the connection's
// buffered reader.
func TestReadFrameBufferedBackToBack(t *testing.T) {
	first, second := []byte{kindMessage, 1, 2, 3}, bytes.Repeat([]byte{kindResponse}, 1000)
	src := &countingReader{r: bytes.NewReader(chash.AppendFrame(chash.AppendFrame(nil, first), second))}
	r := bufio.NewReaderSize(src, readBufferSize)
	for _, want := range [][]byte{first, second} {
		got, err := chash.ReadFrame(r, MaxFrameSize)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame body changed: %d bytes, want %d", len(got), len(want))
		}
	}
	if src.reads != 1 {
		t.Fatalf("two buffered frames took %d reads of the stream, want 1", src.reads)
	}
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// selfSignedTLS returns a server config with a fresh self-signed
// certificate for 127.0.0.1 and a client config that trusts it.
func selfSignedTLS(t *testing.T) (server, client *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "dcert-test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1)},
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatalf("certificate: %v", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("parse certificate: %v", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	server = &tls.Config{Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}}}
	return server, &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
}

// TestFrameWriterMatchesAppendFrame: whichever way the writer sends a
// frame — one copy below the small-frame cutoff, vectored above it on plain
// TCP, one write on TLS — the peer reads exactly chash.AppendFrame(nil, head‖body).
func TestFrameWriterMatchesAppendFrame(t *testing.T) {
	serverTLS, clientTLS := selfSignedTLS(t)
	head := (&responseMsg{id: 9, body: make([]byte, 0)}).encodeHead()
	cut := smallFrame - chash.FrameHeaderSize - len(head)
	for _, tc := range []struct {
		name     string
		vectored bool
		conns    func() (w, r net.Conn)
	}{
		{"tcp", true, func() (net.Conn, net.Conn) { return tcpPair(t) }},
		{"tls", false, func() (net.Conn, net.Conn) {
			c, s := tcpPair(t)
			tc, ts := tls.Client(c, clientTLS), tls.Server(s, serverTLS)
			errc := make(chan error, 1)
			go func() { errc <- ts.Handshake() }()
			if err := tc.Handshake(); err != nil {
				t.Fatalf("tls handshake: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("tls handshake: %v", err)
			}
			return tc, ts
		}},
	} {
		wc, rc := tc.conns()
		w := newFrameWriter(wc)
		if w.vectored != tc.vectored {
			t.Fatalf("%s: vectored = %v, want %v", tc.name, w.vectored, tc.vectored)
		}
		for _, size := range []int{0, cut - 1, cut, cut + 1, 64 << 10, 300 << 10} {
			body := make([]byte, size)
			for i := range body {
				body[i] = byte(i*7 + i>>9)
			}
			want := chash.AppendFrame(nil, append(append([]byte(nil), head...), body...))
			errc := make(chan error, 1)
			go func() { errc <- w.write(head, body) }()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(rc, got); err != nil {
				t.Fatalf("%s, body %d: read: %v", tc.name, size, err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("%s, body %d: write: %v", tc.name, size, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, body %d: the frame on the wire differs from AppendFrame", tc.name, size)
			}
			if cap(w.scratch) > 2*smallFrame {
				t.Fatalf("%s, body %d: writer kept %d bytes of scratch", tc.name, size, cap(w.scratch))
			}
		}
		// Nothing trails the last frame.
		wc.Close()
		if n, err := rc.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Fatalf("%s: %d bytes after the last frame (err %v)", tc.name, n, err)
		}
	}
}

// TestFrameWriterAllocatesNothing: on plain TCP a warm writer sends a small
// frame from its scratch and a large one vectored, allocating nothing for
// either — the body a handler returns reaches the socket uncopied.
func TestFrameWriterAllocatesNothing(t *testing.T) {
	wc, rc := tcpPair(t)
	go io.Copy(io.Discard, rc)
	w := newFrameWriter(wc)
	head := (&responseMsg{id: 9, body: make([]byte, 0)}).encodeHead()
	for _, size := range []int{100, 32 << 10} {
		body := make([]byte, size)
		if err := w.write(head, body); err != nil { // warm the scratch
			t.Fatalf("write: %v", err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := w.write(head, body); err != nil {
				t.Fatalf("write: %v", err)
			}
		}); allocs != 0 {
			t.Fatalf("body %d: %.1f allocations per frame, want 0", size, allocs)
		}
	}
}
