package dcert

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/transport"
)

// The adversary suite: a server, relay or shard that lies, and a client
// that must refute it on its own — never by trusting the server to check
// itself. Each case leaves the client where it was.

// TestBootstrapRelayLiesRefuted: a relay answers dcert/bootstrap with the
// honest node's bytes, tampered, to a client anchored at its own mid-chain
// tip (a genesis path is the tip alone, with no walk to corrupt). A dropped
// hop, two swapped hops, a padded tail, an older segment as the tip, an
// honest response replayed from before the client's own tip, a count beyond
// the bound and truncated bytes are each refused, and the client's Latest
// does not move; the same relay untampered is accepted.
func TestBootstrapRelayLiesRefuted(t *testing.T) {
	r := newSegmentedWireRig(t, 28, 4)
	cl := r.client(t)
	if _, err := BootstrapSublinearOver(r.wc, cl, 0, r.genesis); err != nil {
		t.Fatalf("honest bootstrap: %v", err)
	}
	trusted, _ := cl.Latest()
	stale := encodeBootstrapPath(r.dep.Issuer().BootstrapPath(r.dep.Issuer().LatestSegment(), trusted.Height))
	r.mine(t, 16)
	iss := r.dep.Issuer()
	older := iss.SegmentCovering(trusted.Height - bootstrapSegK)

	reencode := func(edit func(path []*SegmentCert) []*SegmentCert) func([]byte) []byte {
		return func(honest []byte) []byte {
			path, err := decodeBootstrapPath(honest)
			if err != nil {
				t.Errorf("relay cannot decode the honest response: %v", err)
			}
			return encodeBootstrapPath(edit(path))
		}
	}
	cases := []struct {
		name   string
		tamper func(honest []byte) []byte
	}{
		{"hop dropped", reencode(func(p []*SegmentCert) []*SegmentCert { return append(p[:1], p[2:]...) })},
		{"last hop dropped", reencode(func(p []*SegmentCert) []*SegmentCert { return p[:len(p)-1] })},
		{"hops swapped", reencode(func(p []*SegmentCert) []*SegmentCert { p[1], p[2] = p[2], p[1]; return p })},
		{"trailing segment", reencode(func(p []*SegmentCert) []*SegmentCert { return append(p, p[1]) })},
		{"older tip", reencode(func(p []*SegmentCert) []*SegmentCert { p[0] = older; return p })},
		{"stale response", func([]byte) []byte { return stale }},
		{"count beyond bound", func(honest []byte) []byte {
			out := append([]byte(nil), honest...)
			binary.BigEndian.PutUint32(out, core.MaxBootstrapPath+1)
			return out
		}},
		{"truncated", func(honest []byte) []byte { return honest[:len(honest)-7] }},
	}

	// The relay's handler runs on a server goroutine: the tamper in force
	// is handed over atomically, not through the socket's ordering, which
	// the race detector does not see across a vectored write.
	var tamper atomic.Pointer[func([]byte) []byte]
	relay, err := transport.Serve(r.dep.Net(), transport.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("relay Serve: %v", err)
	}
	defer relay.Close()
	relay.Handle(WireRouteBootstrap, func(body []byte) ([]byte, error) {
		anchor, err := decodeHeightRequest(body)
		if err != nil {
			return nil, err
		}
		honest := encodeBootstrapPath(iss.BootstrapPath(iss.LatestSegment(), anchor))
		if f := tamper.Load(); f != nil {
			return (*f)(honest), nil
		}
		return honest, nil
	})
	rc, err := DialWire(relay.Addr(), WireClientConfig{Name: "relayed-client"})
	if err != nil {
		t.Fatalf("DialWire(relay): %v", err)
	}
	defer rc.Close()

	if path := iss.BootstrapPath(iss.LatestSegment(), trusted.Height); len(path) < 4 {
		t.Fatalf("honest path has %d segments, the tamper cases need 4", len(path))
	}
	for _, tc := range cases {
		tamper.Store(&tc.tamper)
		if _, err := BootstrapSublinearOver(rc, cl, trusted.Height, trusted.Hash()); err == nil {
			t.Fatalf("%s: the client accepted the relay's response", tc.name)
		}
		if hdr, _ := cl.Latest(); hdr.Hash() != trusted.Hash() {
			t.Fatalf("%s: a refused response moved the client from %d to %d", tc.name, trusted.Height, hdr.Height)
		}
	}

	tamper.Store(nil)
	if _, err := BootstrapSublinearOver(rc, cl, trusted.Height, trusted.Hash()); err != nil {
		t.Fatalf("untampered relay: %v", err)
	}
	if hdr, _ := cl.Latest(); hdr.Hash() != r.tip(t).Hash() {
		t.Fatal("untampered relay: the client is not on the issuer's tip")
	}
}

// TestGenesisBootstrapLiesRefuted: a genesis-anchored client trusts the tip
// certificate alone, so every lie about that one certificate must be refused
// on the tip, with no hop fetched and the client's Latest unmoved: a tip
// certified by another deployment's enclave (a foreign measurement), a
// genesis hash the pinned measurement does not bind, and a genesis path
// padded with real, valid segments — the walk down to height 1 a node that
// still walks from genesis would serve.
func TestGenesisBootstrapLiesRefuted(t *testing.T) {
	r := newSegmentedWireRig(t, 29, 2)
	cl := r.client(t)
	if _, err := BootstrapSublinearOver(r.wc, cl, 0, r.genesis); err != nil {
		t.Fatalf("honest bootstrap: %v", err)
	}
	trusted, _ := cl.Latest()
	r.mine(t, 8)
	iss := r.dep.Issuer()

	foreign := newSegmentedWireRig(t, 30, 2)
	relay, err := transport.Serve(r.dep.Net(), transport.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("relay Serve: %v", err)
	}
	defer relay.Close()
	relay.Handle(WireRouteBootstrap, func([]byte) ([]byte, error) {
		return encodeBootstrapPath(iss.BootstrapPath(iss.LatestSegment(), 1)), nil
	})
	padding, err := DialWire(relay.Addr(), WireClientConfig{Name: "padded-relay-client"})
	if err != nil {
		t.Fatalf("DialWire(relay): %v", err)
	}
	defer padding.Close()
	if path := iss.BootstrapPath(iss.LatestSegment(), 1); len(path) < 3 || path[len(path)-1].Start() != 1 {
		t.Fatalf("the padded path has %d segments, want the tip and hops down to height 1", len(path))
	}

	cases := []struct {
		name    string
		wc      *WireClient
		genesis Hash
	}{
		{"foreign measurement", foreign.wc, r.genesis},
		{"unbound genesis", r.wc, chash.Leaf([]byte("another-genesis"))},
		{"padded path", padding, r.genesis},
	}
	for _, tc := range cases {
		fetched, err := BootstrapSublinearOver(tc.wc, cl, 0, tc.genesis)
		if err == nil {
			t.Fatalf("%s: the client accepted the response", tc.name)
		}
		if fetched != 1 {
			t.Fatalf("%s: the client walked %d hops before refusing, want none", tc.name, fetched-1)
		}
		if hdr, _ := cl.Latest(); hdr.Hash() != trusted.Hash() {
			t.Fatalf("%s: a refused response moved the client from %d to %d", tc.name, trusted.Height, hdr.Height)
		}
	}
	if fetched, err := BootstrapSublinearOver(r.wc, cl, 0, r.genesis); err != nil || fetched != 1 {
		t.Fatalf("honest bootstrap after the lies = %d, %v; want the tip alone", fetched, err)
	}
	if hdr, _ := cl.Latest(); hdr.Hash() != r.tip(t).Hash() {
		t.Fatal("the client is not on the issuer's tip")
	}
}
