package storage

import (
	"testing"
	"time"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/core"
	"dcert/internal/enclave"
	"dcert/internal/node"
	"dcert/internal/statedb"
	"dcert/internal/storage/vfs"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// engineEnv wires a miner + issuer and records the blocks and certificates
// mined into an engine the way the deployment drives it: the miner journals
// each proposal with its own write set, and the certificate lands afterwards.
type engineEnv struct {
	authority *attest.Authority
	miner     *node.Miner
	issuer    *core.Issuer
	gen       *workload.Generator
	blocks    []*chain.Block
	certs     []*core.Certificate
}

func newEngineEnv(t *testing.T) *engineEnv {
	t.Helper()
	params := consensus.Params{Difficulty: 2}
	cfg := workload.Config{Kind: workload.KVStore, Contracts: 3, Seed: 7, KeySpace: 40}

	mkNode := func() *node.FullNode {
		t.Helper()
		reg := vm.NewRegistry()
		if err := workload.Register(reg, cfg.Kind, cfg.Contracts); err != nil {
			t.Fatalf("Register: %v", err)
		}
		genesis, db, err := node.BuildGenesis(node.GenesisConfig{Time: 1, Consensus: params})
		if err != nil {
			t.Fatalf("BuildGenesis: %v", err)
		}
		n, err := node.NewFullNode(genesis, db, reg, params)
		if err != nil {
			t.Fatalf("NewFullNode: %v", err)
		}
		return n
	}

	authority, err := attest.NewAuthority()
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	issuer, err := core.NewIssuer(mkNode(), authority, platform, enclave.CostModel{})
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	accounts, err := workload.NewAccounts(6)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	gen, err := workload.NewGenerator(cfg, accounts)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return &engineEnv{
		authority: authority,
		miner:     node.NewMiner(mkNode()),
		issuer:    issuer,
		gen:       gen,
	}
}

func (e *engineEnv) resumeCfg() ResumeConfig {
	return ResumeConfig{
		Backend:  statedb.BackendMPT,
		Registry: e.miner.Registry(),
		Params:   consensus.Params{Difficulty: 2},
	}
}

// mine produces one block, journals it and, with withCert, certifies it and
// journals the certificate. withCert false models an issuer outage: the block
// is persisted uncertified.
func (e *engineEnv) mine(t *testing.T, eng *Engine, withCert bool) {
	t.Helper()
	txs, err := e.gen.Block(4)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	blk, _, err := e.miner.ProposeWithWrites(txs, func(blk *chain.Block, writes map[string][]byte) error {
		return eng.ApplyBlock(blk, nil, writes)
	})
	if err != nil {
		t.Fatalf("ProposeWithWrites: %v", err)
	}
	var cert *core.Certificate
	if withCert {
		if cert, _, err = e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		if err := eng.ApplyCert(blk.Hash(), cert); err != nil {
			t.Fatalf("ApplyCert: %v", err)
		}
	}
	e.blocks = append(e.blocks, blk)
	e.certs = append(e.certs, cert)
}

func TestEngineColdStartRoundTrip(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	for i := 0; i < 10; i++ {
		env.mine(t, eng, true)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2, err := OpenEngine(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	rec := eng2.Recovery()
	if rec.TipHeight() != 10 {
		t.Fatalf("recovered tip %d, want 10", rec.TipHeight())
	}
	if rec.Torn || rec.DroppedBlocks != 0 {
		t.Fatalf("clean shutdown recovered dirty: %+v", rec)
	}
	if _, ok := rec.Certs[rec.Blocks[10].Hash()]; !ok {
		t.Fatal("recovered tip has no certificate")
	}
	// Clean shutdown snapshots at the tip: the fast path needs no replay.
	if rec.State == nil || rec.StateHeight != 10 {
		t.Fatalf("state image at %d (nil=%v), want 10", rec.StateHeight, rec.State == nil)
	}
	if err := eng2.Bootstrap(genesis); err != nil {
		t.Fatalf("re-Bootstrap: %v", err)
	}
	n, err := eng2.ResumeNode(env.resumeCfg())
	if err != nil {
		t.Fatalf("ResumeNode: %v", err)
	}
	if n.Tip().Hash() != env.miner.Tip().Hash() {
		t.Fatal("resumed tip differs from pre-shutdown tip")
	}
	root, err := n.State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root != env.miner.Tip().Header.StateRoot {
		t.Fatal("resumed state root differs")
	}
	// The recovered tip certificate still verifies.
	cert, ok := eng2.CertFor(n.Tip().Hash())
	if !ok {
		t.Fatal("tip cert missing after recovery")
	}
	if err := cert.Verify(env.authority.PublicKey(), env.issuer.Measurement(), core.BlockDigest(&n.Tip().Header)); err != nil {
		t.Fatalf("recovered cert must verify: %v", err)
	}
}

func TestEnginePowerCutRecoversCertifiedPrefix(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{Seed: 11})
	eng, err := OpenEngine(dir, Options{FS: fault, FsyncInterval: time.Hour, SnapshotEvery: 3})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	for i := 0; i < 8; i++ {
		env.mine(t, eng, true)
	}
	// Pull the plug without Close: group commit means a suffix of appends
	// (everything since the height-6 snapshot's sync) dies here.
	if err := fault.PowerCut(); err != nil {
		t.Fatalf("PowerCut: %v", err)
	}

	eng2, err := OpenEngine(dir, Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	rec := eng2.Recovery()
	tip := rec.TipHeight()
	if tip < 6 || tip > 8 {
		t.Fatalf("recovered tip %d, want within [6,8] (snapshot sync floor)", tip)
	}
	// The recovered blocks are an exact prefix of what was mined.
	for i, blk := range rec.Blocks[1:] {
		if blk.Hash() != env.blocks[i].Hash() {
			t.Fatalf("recovered block %d diverges from mined chain", i+1)
		}
	}
	if _, ok := rec.Certs[rec.Blocks[tip].Hash()]; !ok {
		t.Fatalf("recovered tip %d has no certificate", tip)
	}
	if err := eng2.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	n, err := eng2.ResumeNode(env.resumeCfg())
	if err != nil {
		t.Fatalf("ResumeNode: %v", err)
	}
	root, err := n.State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root != rec.Blocks[tip].Header.StateRoot {
		t.Fatal("resumed state does not match recovered tip")
	}
}

func TestEngineDropsUncertifiedTail(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{SnapshotEvery: 100})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	env.mine(t, eng, true)
	env.mine(t, eng, true)
	env.mine(t, eng, false) // issuer down: block persisted without a cert
	env.mine(t, eng, false)
	if err := eng.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Crash without Close (Close would snapshot; the sync already made the
	// uncertified blocks durable — recovery must still refuse them).
	eng.chainLog.Close()
	eng.stateWAL.Close()

	eng2, err := OpenEngine(dir, Options{SnapshotEvery: 100})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	rec := eng2.Recovery()
	if rec.TipHeight() != 2 {
		t.Fatalf("recovered tip %d, want 2 (certified prefix)", rec.TipHeight())
	}
	if rec.DroppedBlocks != 2 {
		t.Fatalf("dropped %d blocks, want 2", rec.DroppedBlocks)
	}
	// The log was physically truncated: appending a *different* height-3
	// block later can never collide with the dropped one.
	var heights []uint64
	err = eng2.chainLog.Scan(func(tag byte, payload []byte) error {
		if tag == tagBlock {
			blk, err := chain.UnmarshalBlock(payload)
			if err != nil {
				return err
			}
			heights = append(heights, blk.Header.Height)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(heights) != 3 || heights[2] != 2 {
		t.Fatalf("physical log holds heights %v, want [0 1 2]", heights)
	}
}

func TestEngineLateCertExtendsCertifiedPrefix(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{SnapshotEvery: 100})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	env.mine(t, eng, true)
	env.mine(t, eng, false)
	env.mine(t, eng, false)
	// The issuer catches up and re-certifies the missed blocks; the certs
	// land after the blocks in the log (ApplyCert path).
	for i := 1; i < 3; i++ {
		blk := env.blocks[i]
		cert, _, err := env.issuer.ProcessBlock(blk)
		if err != nil {
			t.Fatalf("catch-up ProcessBlock: %v", err)
		}
		if err := eng.ApplyCert(blk.Hash(), cert); err != nil {
			t.Fatalf("ApplyCert: %v", err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2, err := OpenEngine(dir, Options{SnapshotEvery: 100})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if got := eng2.Recovery().TipHeight(); got != 3 {
		t.Fatalf("recovered tip %d, want 3 (late certs extend the prefix)", got)
	}
	if eng2.Recovery().DroppedBlocks != 0 {
		t.Fatalf("dropped %d blocks, want 0", eng2.Recovery().DroppedBlocks)
	}
}

// TestEngineSnapshotWhenCertificateLands: blocks journaled ahead of their
// certificates (the mining routine's order) must still get the periodic
// snapshot — it fires where the certificate for a multiple-of-N height lands,
// with the mirror's image, which then stands above that height. A crash that
// loses the uncertified blocks finds that image above the recovered tip:
// recovery discards it and the node resumes by replay, at the right root.
func TestEngineSnapshotWhenCertificateLands(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	for i := 0; i < 6; i++ {
		env.mine(t, eng, false)
	}
	if eng.snapHeight != 0 {
		t.Fatalf("snapshot at height %d with nothing certified", eng.snapHeight)
	}
	for h := 1; h <= 4; h++ {
		blk := env.blocks[h-1]
		cert, _, err := env.issuer.ProcessBlock(blk)
		if err != nil {
			t.Fatalf("ProcessBlock(%d): %v", h, err)
		}
		if err := eng.ApplyCert(blk.Hash(), cert); err != nil {
			t.Fatalf("ApplyCert(%d): %v", h, err)
		}
		if want := uint64(h / 4 * 6); eng.snapHeight != want {
			t.Fatalf("certificate %d landed: snapshot at height %d, want %d", h, eng.snapHeight, want)
		}
	}
	if size := eng.stateWAL.Size(); size != 0 {
		t.Fatalf("state WAL holds %d bytes after the snapshot reset it", size)
	}
	// Crash with heights 5 and 6 uncertified.
	if err := eng.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	eng.chainLog.Close()
	eng.stateWAL.Close()

	eng2, err := OpenEngine(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	rec := eng2.Recovery()
	if rec.TipHeight() != 4 || rec.DroppedBlocks != 2 {
		t.Fatalf("recovered tip %d dropping %d, want 4 dropping 2", rec.TipHeight(), rec.DroppedBlocks)
	}
	if rec.State != nil {
		t.Fatalf("recovery trusted a state image at height %d above the certified tip", rec.StateHeight)
	}
	if err := eng2.Bootstrap(genesis); err != nil {
		t.Fatalf("re-Bootstrap: %v", err)
	}
	n, err := eng2.ResumeNode(env.resumeCfg())
	if err != nil {
		t.Fatalf("ResumeNode: %v", err)
	}
	root, err := n.State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if n.Tip().Hash() != env.blocks[3].Hash() || root != env.blocks[3].Header.StateRoot {
		t.Fatalf("replayed node at height %d root %s, want height 4 root %s",
			n.Tip().Header.Height, root, env.blocks[3].Header.StateRoot)
	}
}

// TestEngineApplyCertLooksUpByHash pins that attaching a certificate costs
// the same on a long chain as on a short one. The old lookup hashed every
// header from genesis, and a header hash allocates its preimage, so on 2 000
// blocks it cost over 2 000 allocations per call; the test counts those
// (allocations repeat exactly, wall time does not).
func TestEngineApplyCertLooksUpByHash(t *testing.T) {
	env := newEngineEnv(t)
	eng, err := OpenEngine(t.TempDir(), Options{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	defer eng.Close()
	if err := eng.Bootstrap(env.miner.Store().Best()); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	const blocks = 2000
	hashes := make([]chash.Hash, 0, blocks)
	var cert *core.Certificate
	for i := 0; i < blocks; i++ {
		blk, writes, err := env.miner.ProposeWithWrites(nil, nil)
		if err != nil {
			t.Fatalf("ProposeWithWrites: %v", err)
		}
		if cert == nil {
			// The engine stores certificates without judging them, so one
			// real certificate serves for every height below.
			if cert, _, err = env.issuer.ProcessBlock(blk); err != nil {
				t.Fatalf("ProcessBlock: %v", err)
			}
		}
		if err := eng.ApplyBlock(blk, nil, writes); err != nil {
			t.Fatalf("ApplyBlock: %v", err)
		}
		hashes = append(hashes, blk.Hash())
	}

	// Newest first, so every call but the first is away from the tip.
	next := len(hashes) - 1
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.ApplyCert(hashes[next], cert); err != nil {
			t.Fatalf("ApplyCert: %v", err)
		}
		next--
	})
	if allocs > blocks/10 {
		t.Fatalf("ApplyCert allocates %.0f times on a %d-block chain: it walks the chain", allocs, blocks)
	}
	if _, ok := eng.CertFor(hashes[blocks-1]); !ok {
		t.Fatalf("no certificate for the tip %d", blocks)
	}

	// Idempotent: a second slot landing the same certificate appends nothing.
	size := eng.chainLog.Size()
	if err := eng.ApplyCert(hashes[len(hashes)-1], cert); err != nil {
		t.Fatalf("repeated ApplyCert: %v", err)
	}
	if got := eng.chainLog.Size(); got != size {
		t.Fatalf("repeated ApplyCert grew the log by %d bytes", got-size)
	}
	// A block the engine never journaled is refused.
	if err := eng.ApplyCert(chash.Hash{1}, cert); err == nil {
		t.Fatal("certificate for an unknown block must be refused")
	}
}

func TestEngineIdempotentApply(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	defer eng.Close()
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	env.mine(t, eng, true)
	// A second issuer slot re-announcing the same height is a no-op.
	if err := eng.ApplyBlock(env.blocks[0], env.certs[0], nil); err != nil {
		t.Fatalf("duplicate ApplyBlock: %v", err)
	}
	if eng.TipHeight() != 1 {
		t.Fatalf("tip %d, want 1", eng.TipHeight())
	}
	// A gapped height is refused.
	future := &chain.Block{Header: chain.Header{Height: 5}}
	if err := eng.ApplyBlock(future, nil, nil); err == nil {
		t.Fatal("gapped ApplyBlock must fail")
	}
}

func TestEngineRejectsForeignGenesis(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	env.mine(t, eng, true)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng2, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	other := &chain.Block{Header: chain.Header{Height: 0, Time: 999}}
	if err := eng2.Bootstrap(other); err == nil {
		t.Fatal("foreign genesis must be refused")
	}
}

// TestEngineResumeRefusesWrongWriteSet: the journal takes a block's write set
// as given — the miner journals its own commit — so what guards the disk is
// resume. A block journaled under a write set that does not reproduce its
// header's state root leaves a snapshot+WAL image recovery cannot tell from a
// good one (its records carry the header's root). ResumeNode computes the
// image's root, refuses it, and replays the chain to the header's root; with
// Restore it re-journals the write sets execution produced, so the next open
// finds an image that holds.
func TestEngineResumeRefusesWrongWriteSet(t *testing.T) {
	env := newEngineEnv(t)
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	genesis := env.miner.Store().Best()
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	env.mine(t, eng, true)
	txs, err := env.gen.Block(4)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	blk, writes, err := env.miner.ProposeWithWrites(txs, nil)
	if err != nil {
		t.Fatalf("ProposeWithWrites: %v", err)
	}
	cert, _, err := env.issuer.ProcessBlock(blk)
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	wrong := map[string][]byte{"not/in/the/block": []byte("x")}
	for k, v := range writes {
		wrong[k] = v
	}
	if err := eng.ApplyBlock(blk, cert, wrong); err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	rec := eng2.Recovery()
	if rec.State == nil || rec.StateHeight != 2 {
		t.Fatalf("recovery kept no image at height 2 (height %d, nil=%v)", rec.StateHeight, rec.State == nil)
	}
	if imageRoot(t, rec.State) == blk.Header.StateRoot {
		t.Fatal("the wrong write set reproduces the header's root")
	}
	if err := eng2.Bootstrap(genesis); err != nil {
		t.Fatalf("re-Bootstrap: %v", err)
	}
	cfg := env.resumeCfg()
	cfg.Restore = true
	n, err := eng2.ResumeNode(cfg)
	if err != nil {
		t.Fatalf("ResumeNode: %v", err)
	}
	root, err := n.State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if n.Tip().Hash() != blk.Hash() || root != blk.Header.StateRoot {
		t.Fatalf("resumed at height %d root %s, want height 2 at the header's root %s", n.Tip().Header.Height, root, blk.Header.StateRoot)
	}
	if err := eng2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng3, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer eng3.Close()
	if img := eng3.Recovery().State; img == nil || imageRoot(t, img) != blk.Header.StateRoot {
		t.Fatal("the replay did not re-journal the block's own write set")
	}
}

// imageRoot is the state root a recovered key/value image commits to.
func imageRoot(t *testing.T, img map[string][]byte) chash.Hash {
	t.Helper()
	db := statedb.New()
	for k, v := range img {
		if err := db.Set([]byte(k), v); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	root, err := db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	return root
}
