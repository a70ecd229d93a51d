package storage

import (
	"errors"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/consensus"
	"dcert/internal/core"
	"dcert/internal/node"
)

// Cold storage: a data directory written by one engine is the archive a
// later process reopens, re-validates and serves certificates from.

// writeChain records genesis plus blocks certified blocks into a fresh data
// directory and closes the engine, returning the directory.
func writeChain(t *testing.T, env *engineEnv, blocks int) string {
	t.Helper()
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	if err := eng.Bootstrap(env.miner.Store().Best()); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	for i := 0; i < blocks; i++ {
		env.mine(t, eng, true)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// reopen opens a data directory and returns what recovery found in it.
func reopen(t *testing.T, dir string) *Recovery {
	t.Helper()
	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng.Recovery()
}

// freshNode is a full node at the recovered genesis with an empty history:
// replaying recovered blocks into it re-validates every one.
func freshNode(t *testing.T, env *engineEnv, genesis *chain.Block) *node.FullNode {
	t.Helper()
	_, db, err := node.BuildGenesis(node.GenesisConfig{Time: 1, Consensus: consensus.Params{Difficulty: 2}})
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	n, err := node.NewFullNode(genesis, db, env.miner.Registry(), consensus.Params{Difficulty: 2})
	if err != nil {
		t.Fatalf("NewFullNode: %v", err)
	}
	return n
}

func TestArchiveRoundTrip(t *testing.T) {
	env := newEngineEnv(t)
	rec := reopen(t, writeChain(t, env, 6))
	if len(rec.Blocks) != 7 { // genesis + 6
		t.Fatalf("recovered %d blocks", len(rec.Blocks))
	}
	if len(rec.Certs) != 6 {
		t.Fatalf("recovered %d certs", len(rec.Certs))
	}

	// Restore into a fresh full node: full re-validation.
	fresh := freshNode(t, env, rec.Blocks[0])
	for _, blk := range rec.Blocks[1:] {
		if err := fresh.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock height %d: %v", blk.Header.Height, err)
		}
	}
	if fresh.Tip().Hash() != env.miner.Tip().Hash() {
		t.Fatal("restored tip differs from original")
	}
	root, err := fresh.State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root != env.miner.Tip().Header.StateRoot {
		t.Fatal("restored state differs from original")
	}
	// The stored certificates still verify against the restored chain.
	tip := fresh.Tip()
	cert, ok := rec.Certs[tip.Hash()]
	if !ok {
		t.Fatal("tip certificate missing from the data directory")
	}
	if err := cert.Verify(env.authority.PublicKey(), env.issuer.Measurement(), core.BlockDigest(&tip.Header)); err != nil {
		t.Fatalf("stored certificate must verify: %v", err)
	}
}

// TestArchivedCertificateStillValidates reopens a data directory and has a
// fresh superlight client validate the tip certificate — a client
// bootstrapping from cold storage rather than the network.
func TestArchivedCertificateStillValidates(t *testing.T) {
	env := newEngineEnv(t)
	rec := reopen(t, writeChain(t, env, 5))
	tip := rec.Blocks[len(rec.Blocks)-1]
	cert := rec.Certs[tip.Hash()]
	if cert == nil {
		t.Fatal("tip cert missing")
	}
	// The client needs only its pinned trust anchors, the tip header, and
	// the stored certificate.
	client := core.NewSuperlightClient(env.authority.PublicKey(), env.issuer.Measurement(), consensus.Params{Difficulty: 2})
	if err := client.ValidateChain(&tip.Header, cert); err != nil {
		t.Fatalf("ValidateChain from cold storage: %v", err)
	}
}

// TestCreateRefusesToClobber: a directory holding a chain is reported by
// HasData (the guard a new deployment checks), a foreign genesis cannot be
// bootstrapped over it, and neither the refusal nor a re-bootstrap with the
// right genesis damages what it holds.
func TestCreateRefusesToClobber(t *testing.T) {
	env := newEngineEnv(t)
	if HasData(nil, t.TempDir()) {
		t.Fatal("an empty directory reports a chain")
	}
	dir := writeChain(t, env, 2)
	if !HasData(nil, dir) {
		t.Fatal("a written directory reports no chain")
	}

	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	other := &chain.Block{Header: chain.Header{Height: 0, Time: 999}}
	if err := eng.Bootstrap(other); err == nil {
		t.Fatal("bootstrap over an existing chain with a foreign genesis must fail")
	}
	genesis, err := env.miner.Store().AtHeight(0)
	if err != nil {
		t.Fatalf("AtHeight: %v", err)
	}
	if err := eng.Bootstrap(genesis); err != nil {
		t.Fatalf("re-Bootstrap: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec := reopen(t, dir)
	if len(rec.Blocks) != 3 {
		t.Fatalf("data directory damaged: %d blocks", len(rec.Blocks))
	}
	if rec.Blocks[2].Hash() != env.miner.Tip().Hash() {
		t.Fatal("data directory damaged: tip differs")
	}
}

func TestReplayRejectsTamperedBlocks(t *testing.T) {
	env := newEngineEnv(t)
	rec := reopen(t, writeChain(t, env, 4))
	// Tamper with a mid-chain block's state root: full-node replay rejects.
	forged := *rec.Blocks[2]
	forged.Header.StateRoot[0] ^= 0xFF
	blocks := append([]*chain.Block(nil), rec.Blocks...)
	blocks[2] = &forged

	fresh := freshNode(t, env, blocks[0])
	for _, blk := range blocks[1:] {
		if err := fresh.ProcessBlock(blk); err != nil {
			return
		}
	}
	t.Fatal("tampered chain must not replay")
}

// TestReplayRejectsWrongGenesis: a data directory written for one genesis is
// refused as corrupt by an engine bootstrapped with another, and the refusal
// leaves the directory as it was.
func TestReplayRejectsWrongGenesis(t *testing.T) {
	env := newEngineEnv(t)
	foreign, _, err := node.BuildGenesis(node.GenesisConfig{Time: 999, Consensus: consensus.Params{Difficulty: 2}})
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	dir := t.TempDir()
	eng, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	if err := eng.Bootstrap(foreign); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2, err := OpenEngine(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := eng2.Bootstrap(env.miner.Store().Best()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := reopen(t, dir)
	if len(rec.Blocks) != 1 || rec.Blocks[0].Hash() != foreign.Hash() {
		t.Fatal("refused bootstrap changed the data directory")
	}
}
