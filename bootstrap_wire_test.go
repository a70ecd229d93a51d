package dcert

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

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

// TestSegmentCertCrossesTheWire: a K>1 segment certificate published on
// TopicCerts reaches a TCP subscriber byte for byte, and a remote follower
// adopts its tip from the stream alone (it never stalls into a pull).
func TestSegmentCertCrossesTheWire(t *testing.T) {
	r := newSegmentedWireRig(t, 77, 0)
	defer r.dep.Net().Close()
	sub := r.wc.Subscribe(TopicCerts, 4)
	defer sub.Cancel()
	follower := FollowCertsOver(r.wc, r.client(t), FollowerConfig{StallDeadline: time.Hour})
	defer follower.Stop()

	_, seg, err := r.dep.MineAndCertifySegment(4, 2)
	if err != nil {
		t.Fatalf("MineAndCertifySegment: %v", err)
	}
	select {
	case m := <-sub.C:
		got, ok := m.Payload.(*SegmentCert)
		if !ok {
			t.Fatalf("segment arrived as %T", m.Payload)
		}
		if !bytes.Equal(got.Marshal(), seg.Marshal()) {
			t.Fatal("segment bytes changed in transit")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("segment never reached the TCP subscriber (server %+v)", r.srv.Stats())
	}
	if err := follower.WaitForHeight(seg.End(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if hdr, _ := follower.Client().Latest(); hdr.Hash() != seg.Tip().Hash() {
		t.Fatalf("follower tip %s, want the segment tip %s", hdr.Hash(), seg.Tip().Hash())
	}
	if st := follower.Stats(); st.Rerequests != 0 {
		t.Fatalf("follower pulled %d times; the stream alone must carry the segment", st.Rerequests)
	}
}

// TestBootstrapOverWire: a fresh client reaches the tip from genesis in ONE
// dcert/bootstrap round trip that carries the tip segment alone (the model's
// count), a client anchored at a mid-chain tip walks at least one hop, and
// an anchor of MaxUint64 gets the tip alone, which the client refuses.
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
	if want := ModelBootstrapFetches(tip.Height, bootstrapSegK) + 1; fetches != 1 || fetches != want {
		t.Fatalf("bootstrap fetched %d segments, want the tip alone (the model says %d)", fetches, want)
	}
	if hdr, _ := cl.Latest(); hdr == nil || hdr.Hash() != tip.Hash() {
		t.Fatal("bootstrapped client does not sit on the issuer's tip")
	}

	midFetches, err := BootstrapSublinearOver(r.wc, midClient, mid.Height, mid.Hash())
	if err != nil {
		t.Fatalf("BootstrapSublinearOver (from mid anchor): %v", err)
	}
	if midFetches < 2 {
		t.Fatalf("a client anchored at height %d fetched %d segments, want the tip and at least one hop", mid.Height, midFetches)
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

// segmentByteEncoding is the dcert/bootstrap response as its format is
// specified: a count, then each segment's Marshal bytes, length-prefixed.
func segmentByteEncoding(path []*SegmentCert) []byte {
	e := chash.NewEncoder(0)
	e.PutUint32(uint32(len(path)))
	for _, seg := range path {
		e.PutBytes(seg.Marshal())
	}
	return e.Bytes()
}

// TestBootstrapRouteServesFreshPaths: the dcert/bootstrap route answers
// repeats from its memo, yet every answer equals a fresh encoding of the
// path from the deployment's newest certified tip: a new segment replaces
// the old tip's paths, two mid-chain anchors get their own, and the empty
// path before any segment is never served from the memo. The genesis anchor
// is answered with the tip alone, and a block still being certified
// withdraws no anchor's path.
func TestBootstrapRouteServesFreshPaths(t *testing.T) {
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: 31, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	srv, err := dep.ServeWire(WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	wc, err := DialWire(srv.Addr(), WireClientConfig{Name: "fresh-paths"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	fetch := func(anchor uint64) []byte {
		t.Helper()
		e := chash.NewEncoder(8)
		e.PutUint64(anchor)
		raw, err := wc.Request(WireRouteBootstrap, e.Bytes())
		if err != nil {
			t.Fatalf("Request(%d): %v", anchor, err)
		}
		return raw
	}
	// check asks twice (the second answer comes from the memo when the
	// path is not empty) and compares both with a fresh encoding.
	check := func(anchor uint64) []byte {
		t.Helper()
		tip := dep.tipSegment()
		path := tip.issuer.BootstrapPath(tip.seg, anchor)
		want := encodeBootstrapPath(path)
		if !bytes.Equal(want, segmentByteEncoding(path)) {
			t.Fatal("encodeBootstrapPath differs from the specified encoding")
		}
		if len(want) != cap(want) {
			t.Fatalf("a %d-byte path was encoded into a %d-byte buffer", len(want), cap(want))
		}
		for i := 0; i < 2; i++ {
			if got := fetch(anchor); !bytes.Equal(got, want) {
				t.Fatalf("anchor %d, ask %d: the route served %d bytes, a fresh encoding has %d", anchor, i, len(got), len(want))
			}
		}
		return want
	}
	empty := encodeBootstrapPath(nil)
	// genesisPath is the genesis anchor's answer: the deployment's newest
	// certified segment alone.
	genesisPath := func() []byte {
		t.Helper()
		want := encodeBootstrapPath([]*SegmentCert{dep.tipSegment().seg})
		for i := 0; i < 2; i++ {
			if got := fetch(0); !bytes.Equal(got, want) {
				t.Fatalf("genesis anchor, ask %d: the route served %d bytes, the tip alone has %d", i, len(got), len(want))
			}
		}
		return want
	}

	const low = 1
	for _, anchor := range []uint64{0, low} {
		if got := check(anchor); !bytes.Equal(got, empty) {
			t.Fatalf("anchor %d: before any segment the route served a non-empty path", anchor)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := dep.MineAndCertifySegment(4, 1); err != nil {
			t.Fatalf("MineAndCertifySegment: %v", err)
		}
	}
	mid := dep.Issuer().LatestSegment().End()
	var prev []byte
	for round := 0; round < 3; round++ {
		if _, _, err := dep.MineAndCertifySegment(4, 1); err != nil {
			t.Fatalf("MineAndCertifySegment: %v", err)
		}
		fromLow, fromMid := check(low), check(mid)
		if bytes.Equal(fromLow, prev) {
			t.Fatalf("round %d: a new segment landed and the route served the old tip's path", round)
		}
		if bytes.Equal(fromLow, fromMid) {
			t.Fatalf("round %d: anchors %d and %d got the same path", round, low, mid)
		}
		if fromGenesis := genesisPath(); bytes.Equal(fromGenesis, fromLow) {
			t.Fatalf("round %d: anchors 0 and %d got the same path", round, low)
		}
		prev = fromLow
	}

	// Mid-certification: the issuer's node holds a block its segment does
	// not yet cover, so the issuer reports no tip segment, yet every anchor
	// is still answered from the last certified tip.
	blks, _, _, err := dep.mine(1, 1, nil, nil)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if err := dep.Issuer().Node().ProcessBlock(blks[0]); err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	if dep.Issuer().LatestSegment() != nil {
		t.Fatal("the issuer reports a tip segment for an uncertified tip")
	}
	for _, anchor := range []uint64{low, mid} {
		if got := check(anchor); bytes.Equal(got, empty) {
			t.Fatalf("anchor %d mid-certification: the route withdrew the last certified tip's path", anchor)
		}
	}
	if got := genesisPath(); bytes.Equal(got, empty) {
		t.Fatal("genesis anchor mid-certification: the route withdrew the last certified tip")
	}
}

// TestBootstrapRepeatAllocatesConstant: a repeat request for the same tip
// and anchor is answered from the memo, so it allocates a constant handful
// of bytes on the server, not the path's size; the first costs one
// exact-size encoding.
func TestBootstrapRepeatAllocatesConstant(t *testing.T) {
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: 33, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := dep.MineAndCertifySegment(bootstrapSegK, 1); err != nil {
			t.Fatalf("MineAndCertifySegment: %v", err)
		}
	}
	// A mid-chain anchor near genesis: its path walks several hops.
	const anchor = 1
	memo := new(bootstrapMemo)
	first := memo.path(dep, anchor)
	if len(first) < 8<<10 {
		t.Fatalf("the path is %d bytes; the test needs one far above its bound", len(first))
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if raw := memo.path(dep, anchor); &raw[0] != &first[0] {
			t.Fatal("a repeat request was encoded again")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 256 {
		t.Fatalf("a repeat request allocated %d bytes for a %d-byte path, want <= 256", perCall, len(first))
	}
	// Past the memo's bound, an anchor is still answered correctly.
	for a := uint64(anchor + 1); a <= bootstrapMemoAnchors+3; a++ {
		if got, want := memo.path(dep, a), encodeBootstrapPath(dep.Issuer().BootstrapPath(dep.Issuer().LatestSegment(), a)); !bytes.Equal(got, want) {
			t.Fatalf("anchor %d: memo and fresh encoding differ", a)
		}
	}
	if n := len(memo.paths); n > bootstrapMemoAnchors {
		t.Fatalf("the memo holds %d anchors, bound %d", n, bootstrapMemoAnchors)
	}
}

// TestBootstrapMemoUnderConcurrentSegments: readers of the genesis anchor
// and of a mid-chain anchor share the memo while segments land. Every answer
// is a path a fresh client adopts, and none starts below the tip segment the
// reader saw before asking: the memo never hands out a tip older than the
// issuer's.
func TestBootstrapMemoUnderConcurrentSegments(t *testing.T) {
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: 35, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	if _, _, err := dep.MineAndCertifySegment(4, 1); err != nil {
		t.Fatalf("MineAndCertifySegment: %v", err)
	}
	anchorHashes := []Hash{dep.Issuer().Node().Store().Genesis()}
	if h, err := dep.Issuer().Node().Store().HashAt(1); err != nil {
		t.Fatalf("HashAt(1): %v", err)
	} else {
		anchorHashes = append(anchorHashes, h)
	}
	memo := new(bootstrapMemo)
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		anchor := uint64(g % len(anchorHashes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seen := dep.Issuer().LatestSegment().End()
				path, err := decodeBootstrapPath(memo.path(dep, anchor))
				if err != nil {
					errs <- err
					return
				}
				if len(path) == 0 {
					errs <- errors.New("served an empty path with a tip segment recorded")
					return
				}
				if path[0].End() < seen {
					errs <- fmt.Errorf("served a path from height %d after seeing the tip at %d", path[0].End(), seen)
					return
				}
				if _, err := dep.NewSuperlightClient().BootstrapFromPath(path, anchor, anchorHashes[anchor]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if _, _, err := dep.MineAndCertifySegment(4, 1); err != nil {
			t.Fatalf("MineAndCertifySegment: %v", err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
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
	honest := encodeBootstrapPath(dep.Issuer().BootstrapPath(dep.Issuer().LatestSegment(), 0))
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

// FuzzDecodeNodeInfo drives the decoder a client runs first on a node's
// self-description (RequestNodeInfo, the trust anchors): every input must
// fail or round-trip, and decoding may allocate only in proportion to the
// bytes.
func FuzzDecodeNodeInfo(f *testing.F) {
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: 37, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		f.Fatalf("NewDeployment: %v", err)
	}
	honest := encodeNodeInfo(&NodeInfo{
		AuthorityKey: dep.authority.PublicKey(),
		Measurement:  dep.Issuer().Measurement(),
		Params:       dep.params,
	})
	if _, err := decodeNodeInfo(honest); err != nil {
		f.Fatalf("honest node info refused: %v", err)
	}
	f.Add(honest)
	f.Add(honest[:len(honest)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := decodeNodeInfo(raw)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(raw), got, bound)
		}
		if err != nil {
			return
		}
		re := encodeNodeInfo(info)
		again, err := decodeNodeInfo(re)
		if err != nil {
			t.Fatalf("the re-encoding of accepted node info fails to decode: %v", err)
		}
		if !bytes.Equal(re, encodeNodeInfo(again)) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
