package dcert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/node"
	"dcert/internal/query"
	"dcert/internal/statedb"
	"dcert/internal/transport"
	"dcert/internal/workload"
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

// TestCertifiedFeedRefusesBeforeExecution: the serving plane adopts blocks
// only under a certificate it checks itself, so a lie about a certified
// block is refused before anything executes — a certified header carrying a
// swapped body, a genuine certificate over another chain's segment, a
// certificate under a foreign measurement — and a segment at or below the
// SP's tip is nothing to do. Each leaves the SP's and the fleet's tip, state
// root and index root byte-identical. The honest segment then goes in for no
// signature verification and exactly one certificate check.
func TestCertifiedFeedRefusesBeforeExecution(t *testing.T) {
	dep, err := NewDeployment(Config{Difficulty: 2, Seed: 41, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	if _, err := dep.AddIndex(func() (*AuthIndex, error) { return NewHistoricalIndex("hist", "ct/") }); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	f, err := dep.StartFleet(2)
	if err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := dep.MineAndCertify(6); err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
	}
	served := dep.SP().Node().Tip().Header.Height
	key := keyWithHistory(t, dep)

	// The honest block: mined and certified, not yet served.
	txs, err := dep.GenerateBlockTxs(6)
	if err != nil {
		t.Fatalf("GenerateBlockTxs: %v", err)
	}
	blk, err := dep.Miner().Propose(txs)
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	honest, _, err := dep.Issuer().ProcessSegment([]*Block{blk})
	if err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}
	minerBody := dep.Miner().Store().AtHeight

	otherTxs, err := dep.GenerateBlockTxs(6)
	if err != nil {
		t.Fatalf("GenerateBlockTxs: %v", err)
	}
	swapped := *blk
	swapped.Txs = otherTxs
	swappedBody := func(h uint64) (*Block, error) {
		if h == blk.Header.Height {
			return &swapped, nil
		}
		return minerBody(h)
	}

	// Another chain from the same genesis, certified by a second issuer of
	// the same enclave program: its certificate is genuine.
	forkCfg := dep.cfg
	forkCfg.Seed = 42
	fork, err := dep.AddIssuer()
	if err != nil {
		t.Fatalf("AddIssuer: %v", err)
	}
	forkSeg := certifyOwnChain(t, forkCfg, dep.params, fork, served+1)
	// A chain whose genesis differs, so its program's measurement does.
	foreignCfg := dep.cfg
	foreignCfg.StateBackend = statedb.BackendSMT
	foreignNode, err := foreignCfg.newFullNode(dep.params)
	if err != nil {
		t.Fatalf("foreign node: %v", err)
	}
	platform, err := dep.authority.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	foreign, err := core.NewIssuer(foreignNode, dep.authority, platform, dep.cfg.EnclaveCost)
	if err != nil {
		t.Fatalf("foreign issuer: %v", err)
	}
	if foreign.Measurement() == dep.Issuer().Measurement() {
		t.Fatal("the foreign chain's program has the deployment's measurement")
	}
	foreignSeg := certifyOwnChain(t, foreignCfg, dep.params, foreign, served+1)

	type feedView struct {
		spTip, spRoot, histRoot, fleetTip Hash
		fleetAnswer                       string
	}
	view := func() feedView {
		var v feedView
		v.spTip = dep.SP().Node().Tip().Hash()
		if v.spRoot, err = dep.SP().Node().State().Root(); err != nil {
			t.Fatalf("state root: %v", err)
		}
		ix, err := dep.SP().Index("hist")
		if err != nil {
			t.Fatalf("Index: %v", err)
		}
		if v.histRoot, err = ix.Root(); err != nil {
			t.Fatalf("index root: %v", err)
		}
		for _, name := range f.Router().Members() {
			rep, err := f.Replica(name)
			if err != nil {
				t.Fatalf("Replica: %v", err)
			}
			if tip := rep.Tip().Hash(); v.fleetTip == (Hash{}) {
				v.fleetTip = tip
			} else if tip != v.fleetTip {
				t.Fatalf("shards at different tips")
			}
		}
		v.fleetAnswer = string(f.HandleRaw(query.NewHistoricalRequest("hist", key, 0, 100).Marshal()))
		return v
	}
	before := view()
	if before.fleetTip != before.spTip {
		t.Fatal("the fleet is not at the SP's tip")
	}

	stale := dep.Issuer().SegmentCovering(served)
	rows := []struct {
		name   string
		seg    *SegmentCert
		body   func(uint64) (*Block, error)
		want   error // nil: nothing to do
		checks uint64
	}{
		{"swapped body", honest, swappedBody, chain.ErrBadBlock, 1},
		{"another chain's segment", forkSeg, minerBody, chain.ErrBadBlock, 1},
		{"foreign measurement", foreignSeg, minerBody, core.ErrBadCertificate, 1},
		{"segment at the SP's tip", stale, minerBody, nil, 0},
	}
	for _, row := range rows {
		sigs, checks := chain.SigVerifications(), core.CertChecks()
		err := dep.serveCertified(row.seg, row.body)
		if row.want == nil && err != nil || row.want != nil && !errors.Is(err, row.want) {
			t.Fatalf("%s: serveCertified = %v, want %v", row.name, err, row.want)
		}
		if got := chain.SigVerifications() - sigs; got != 0 {
			t.Fatalf("%s: %d signature verifications before the refusal, want none", row.name, got)
		}
		if got := core.CertChecks() - checks; got != row.checks {
			t.Fatalf("%s: %d certificate checks, want %d", row.name, got, row.checks)
		}
		if after := view(); after != before {
			t.Fatalf("%s: the refusal moved the serving plane", row.name)
		}
	}

	sigs, checks := chain.SigVerifications(), core.CertChecks()
	if err := dep.serveCertified(honest, minerBody); err != nil {
		t.Fatalf("honest segment: %v", err)
	}
	if got := chain.SigVerifications() - sigs; got != 0 {
		t.Fatalf("honest segment: %d signature verifications, want none", got)
	}
	if got := core.CertChecks() - checks; got != 1 {
		t.Fatalf("honest segment: %d certificate checks, want 1", got)
	}
	if after := view(); after.spTip != blk.Hash() || after.fleetTip != blk.Hash() {
		t.Fatal("the honest segment did not move the SP and the fleet to its tip")
	}
}

// certifyOwnChain mines blocks 1..height of the chain cfg describes on a
// fresh miner and certifies them as one segment on issuer, whose node starts
// at that chain's genesis.
func certifyOwnChain(t *testing.T, cfg Config, params ConsensusParams, issuer *core.Issuer, height uint64) *SegmentCert {
	t.Helper()
	n, err := cfg.newFullNode(params)
	if err != nil {
		t.Fatalf("newFullNode: %v", err)
	}
	gen, err := cfg.newGenerator()
	if err != nil {
		t.Fatalf("newGenerator: %v", err)
	}
	miner := node.NewMiner(n)
	blks := make([]*Block, 0, height)
	for h := uint64(1); h <= height; h++ {
		txs, err := gen.Block(6)
		if err != nil {
			t.Fatalf("gen.Block: %v", err)
		}
		blk, err := miner.Propose(txs)
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		blks = append(blks, blk)
	}
	seg, _, err := issuer.ProcessSegment(blks)
	if err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}
	return seg
}

// keyWithHistory finds a KVStore key the SP's historical index holds
// entries for.
func keyWithHistory(t *testing.T, dep *Deployment) string {
	t.Helper()
	for c := 0; c < dep.cfg.Contracts; c++ {
		for i := 0; i < dep.cfg.KeySpace; i++ {
			key := fmt.Sprintf("ct/%s/kv/user-key-%d", workload.ContractName(workload.KVStore, c), i)
			if res, err := dep.SP().HistoricalQuery("hist", key, 0, 100); err == nil && len(res.Entries) > 0 {
				return key
			}
		}
	}
	t.Fatal("no key has history")
	return ""
}
