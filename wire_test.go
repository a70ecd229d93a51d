package dcert_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dcert"
	"dcert/internal/chash"
	"dcert/internal/network"
	"dcert/internal/transport"
)

// TestWireRefusesRemotePublish: the wire is read-only. A peer that sends a
// frame of the retired publish kind (6) — here a replayed, validly signed
// certificate bundle under the name "ci" — has its connection closed, and
// nothing it sent reaches the node's certificate feed: neither an in-process
// nor a TCP subscriber receives it, so the next honest certificate is the
// next message both see.
func TestWireRefusesRemotePublish(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{Difficulty: 2, Seed: 39, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer dep.Net().Close()
	blk, cert, err := dep.MineAndCertify(2)
	if err != nil {
		t.Fatalf("MineAndCertify: %v", err)
	}
	replayed := (&dcert.CertBundle{Header: &blk.Header, Cert: cert}).Marshal()

	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "reader"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	local := dep.Net().Subscribe(dcert.TopicCerts, 64)
	defer local.Cancel()
	remote := wc.Subscribe(dcert.TopicCerts, 64)
	defer remote.Cancel()

	// The peer speaks the handshake by hand, then sends kind 6: topic,
	// publisher name and a tagged payload (3 = cert bundle).
	peer, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer peer.Close()
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	hello := chash.NewEncoder(32)
	hello.PutByte(1)
	hello.PutUint32(0x44435254) // "DCRT"
	hello.PutUint32(transport.ProtocolVersion)
	hello.PutString("publisher")
	if _, err := peer.Write(chash.AppendFrame(nil, hello.Bytes())); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	if welcome, err := chash.ReadFrame(peer, transport.MaxFrameSize); err != nil || welcome[0] != 2 {
		t.Fatalf("handshake: %v", err)
	}
	publish := chash.NewEncoder(64 + len(replayed))
	publish.PutByte(6)
	publish.PutString(dcert.TopicCerts)
	publish.PutString("ci")
	publish.PutBytes(append([]byte{3}, replayed...))
	if _, err := peer.Write(chash.AppendFrame(nil, publish.Bytes())); err != nil {
		t.Fatalf("write kind 6: %v", err)
	}
	if _, err := chash.ReadFrame(peer, transport.MaxFrameSize); !errors.Is(err, io.EOF) {
		t.Fatalf("after a kind-6 frame the server kept the connection (read: %v)", err)
	}

	next, _, err := dep.MineAndCertify(2)
	if err != nil {
		t.Fatalf("MineAndCertify: %v", err)
	}
	for name, sub := range map[string]*network.Subscription{"in-process": local, "TCP": remote} {
		select {
		case m := <-sub.C:
			b, ok := m.Payload.(*dcert.CertBundle)
			if !ok || b.Header.Hash() != next.Hash() {
				t.Fatalf("%s subscriber: first message is %T from %q, want the certificate of height %d", name, m.Payload, m.From, next.Header.Height)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s subscriber: the honest certificate never arrived", name)
		}
	}
}
