package dcert

import (
	"errors"
	"math"
	"testing"

	"dcert/internal/chash"
	"dcert/internal/core"
)

// bootstrapSegK is the segment length of the wire bootstrap tests: the
// K=16 of the benchmark's client_bootstrap workload.
const bootstrapSegK = 16

// segmentedWireRig is a K=16 segmented deployment served over TCP, with one
// dialled client.
type segmentedWireRig struct {
	dep     *Deployment
	srv     *WireServer
	wc      *WireClient
	genesis Hash
}

func newSegmentedWireRig(t *testing.T, seed int64, segments int) *segmentedWireRig {
	t.Helper()
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: seed, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	r := &segmentedWireRig{dep: dep, genesis: dep.Issuer().Node().Store().Genesis()}
	r.mine(t, segments)
	if r.srv, err = dep.ServeWire(WireServerConfig{Addr: "127.0.0.1:0"}); err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	t.Cleanup(func() { r.srv.Close() })
	if r.wc, err = DialWire(r.srv.Addr(), WireClientConfig{Name: "bootstrap-client"}); err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	t.Cleanup(func() { r.wc.Close() })
	return r
}

// mine certifies more K=16 segments of one-transaction blocks.
func (r *segmentedWireRig) mine(t *testing.T, segments int) {
	t.Helper()
	for i := 0; i < segments; i++ {
		if _, _, err := r.dep.MineAndCertifySegment(bootstrapSegK, 1); err != nil {
			t.Fatalf("MineAndCertifySegment: %v", err)
		}
	}
}

// tip is the issuer's newest certified header.
func (r *segmentedWireRig) tip(t *testing.T) *Header {
	t.Helper()
	seg := r.dep.Issuer().LatestSegment()
	if seg == nil {
		t.Fatal("issuer has no tip segment")
	}
	return seg.Tip()
}

// client is a fresh superlight client built from the node's anchors.
func (r *segmentedWireRig) client(t *testing.T) *SuperlightClient {
	t.Helper()
	cl, err := NewRemoteSuperlightClient(r.wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	return cl
}

// TestBootstrapOverWire: a fresh client reaches the tip from genesis in ONE
// dcert/bootstrap round trip with the model's segment count, a client
// anchored at a mid-chain tip fetches fewer, and an anchor of MaxUint64 gets
// the tip alone, which the client refuses.
func TestBootstrapOverWire(t *testing.T) {
	r := newSegmentedWireRig(t, 27, 18)

	// A client validates the mid-chain tip, then the chain grows.
	midClient := r.client(t)
	if _, err := BootstrapSublinearOver(r.wc, midClient, 0, r.genesis); err != nil {
		t.Fatalf("BootstrapSublinearOver (mid): %v", err)
	}
	mid, _ := midClient.Latest()
	r.mine(t, 2)
	tip := r.tip(t)

	cl := r.client(t)
	before := r.srv.Stats().Requests
	fetches, err := BootstrapSublinearOver(r.wc, cl, 0, r.genesis)
	if err != nil {
		t.Fatalf("BootstrapSublinearOver: %v", err)
	}
	if requests := r.srv.Stats().Requests - before; requests != 1 {
		t.Fatalf("bootstrap took %d requests, want 1", requests)
	}
	if want := ModelBootstrapFetches(tip.Height, bootstrapSegK) + 1; fetches != want {
		t.Fatalf("bootstrap fetched %d segments, the model says %d", fetches, want)
	}
	if hdr, _ := cl.Latest(); hdr == nil || hdr.Hash() != tip.Hash() {
		t.Fatal("bootstrapped client does not sit on the issuer's tip")
	}

	midFetches, err := BootstrapSublinearOver(r.wc, midClient, mid.Height, mid.Hash())
	if err != nil {
		t.Fatalf("BootstrapSublinearOver (from mid anchor): %v", err)
	}
	if midFetches >= fetches {
		t.Fatalf("a client anchored at height %d fetched %d segments, from genesis %d", mid.Height, midFetches, fetches)
	}
	if hdr, _ := midClient.Latest(); hdr.Hash() != tip.Hash() {
		t.Fatal("mid-anchored client does not sit on the issuer's tip")
	}

	// An anchor above every height: the node answers with the tip alone
	// (no wrap-around walk), and the client refuses it.
	req := chash.NewEncoder(8)
	req.PutUint64(math.MaxUint64)
	raw, err := r.wc.Request(WireRouteBootstrap, req.Bytes())
	if err != nil {
		t.Fatalf("Request(MaxUint64): %v", err)
	}
	path, err := decodeBootstrapPath(raw)
	if err != nil {
		t.Fatalf("decodeBootstrapPath: %v", err)
	}
	if len(path) != 1 || path[0].Tip().Hash() != tip.Hash() {
		t.Fatalf("anchor MaxUint64: %d segments, want the tip alone", len(path))
	}
	fresh := r.client(t)
	if _, err := BootstrapSublinearOver(r.wc, fresh, math.MaxUint64, r.genesis); !errors.Is(err, core.ErrBadInterlink) {
		t.Fatalf("anchor MaxUint64: want ErrBadInterlink, got %v", err)
	}
	if hdr, _ := fresh.Latest(); hdr != nil {
		t.Fatalf("anchor MaxUint64: the client adopted height %d", hdr.Height)
	}
}

// FuzzDecodeBootstrapPath drives the dcert/bootstrap response decoder with
// hostile bytes: it must never panic or pre-allocate from a claimed count,
// and whatever it accepts must re-encode to the same bytes.
func FuzzDecodeBootstrapPath(f *testing.F) {
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: 27, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		f.Fatalf("NewDeployment: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := dep.MineAndCertifySegment(4, 1); err != nil {
			f.Fatalf("MineAndCertifySegment: %v", err)
		}
	}
	honest := encodeBootstrapPath(dep.Issuer().BootstrapPath(0))
	f.Add(honest)
	f.Add(encodeBootstrapPath(nil))
	f.Add(honest[:len(honest)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		path, err := decodeBootstrapPath(raw)
		if err != nil {
			return
		}
		if len(path) > core.MaxBootstrapPath {
			t.Fatalf("decoded %d segments, beyond %d", len(path), core.MaxBootstrapPath)
		}
		if again := encodeBootstrapPath(path); string(again) != string(raw) {
			t.Fatal("accepted bytes do not re-encode canonically")
		}
	})
}
