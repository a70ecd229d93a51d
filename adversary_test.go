package dcert

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"dcert/internal/core"
	"dcert/internal/transport"
)

// The adversary suite: a server, relay or shard that lies, and a client
// that must refute it on its own — never by trusting the server to check
// itself. Each case leaves the client where it was.

// TestBootstrapRelayLiesRefuted: a relay answers dcert/bootstrap with the
// honest node's bytes, tampered. A dropped hop, two swapped hops, a padded
// tail, an older segment as the tip, an honest response replayed from
// before the client's own tip, a count beyond the bound and truncated bytes
// are each refused, and the client's Latest does not move; the same relay
// untampered is accepted.
func TestBootstrapRelayLiesRefuted(t *testing.T) {
	r := newSegmentedWireRig(t, 28, 4)
	cl := r.client(t)
	if _, err := BootstrapSublinearOver(r.wc, cl, 0, r.genesis); err != nil {
		t.Fatalf("honest bootstrap: %v", err)
	}
	trusted, _ := cl.Latest()
	stale := encodeBootstrapPath(r.dep.Issuer().BootstrapPath(0))
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
		honest := encodeBootstrapPath(iss.BootstrapPath(anchor))
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

	if path := iss.BootstrapPath(0); len(path) < 4 {
		t.Fatalf("honest path has %d segments, the tamper cases need 4", len(path))
	}
	for _, tc := range cases {
		tamper.Store(&tc.tamper)
		if _, err := BootstrapSublinearOver(rc, cl, 0, r.genesis); err == nil {
			t.Fatalf("%s: the client accepted the relay's response", tc.name)
		}
		if hdr, _ := cl.Latest(); hdr.Hash() != trusted.Hash() {
			t.Fatalf("%s: a refused response moved the client from %d to %d", tc.name, trusted.Height, hdr.Height)
		}
	}

	tamper.Store(nil)
	if _, err := BootstrapSublinearOver(rc, cl, 0, r.genesis); err != nil {
		t.Fatalf("untampered relay: %v", err)
	}
	if hdr, _ := cl.Latest(); hdr.Hash() != r.tip(t).Hash() {
		t.Fatal("untampered relay: the client is not on the issuer's tip")
	}
}
