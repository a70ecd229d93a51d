package node

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/statedb"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// testChain wires a miner and an independent full node over the same genesis.
type testChain struct {
	miner *Miner
	full  *FullNode
	gen   *workload.Generator
}

func newTestChain(t *testing.T, kind workload.Kind) *testChain {
	t.Helper()
	accounts, err := workload.NewAccounts(6)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	cfg := workload.Config{Kind: kind, Contracts: 3, Seed: 5, KeySpace: 40, CPUSortSize: 32, IOOpsPerTx: 3}
	params := consensus.Params{Difficulty: 4}

	mkNode := func() *FullNode {
		t.Helper()
		reg := vm.NewRegistry()
		if err := workload.Register(reg, kind, cfg.Contracts); err != nil {
			t.Fatalf("Register: %v", err)
		}
		genesis, db, err := BuildGenesis(GenesisConfig{Time: 1, Consensus: params})
		if err != nil {
			t.Fatalf("BuildGenesis: %v", err)
		}
		n, err := NewFullNode(genesis, db, reg, params)
		if err != nil {
			t.Fatalf("NewFullNode: %v", err)
		}
		return n
	}

	gen, err := workload.NewGenerator(cfg, accounts)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return &testChain{miner: NewMiner(mkNode()), full: mkNode(), gen: gen}
}

func (tc *testChain) mine(t *testing.T, n int) *chain.Block {
	t.Helper()
	txs, err := tc.gen.Block(n)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	b, err := tc.miner.Propose(txs)
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	return b
}

func TestGenesisDeterministic(t *testing.T) {
	cfg := GenesisConfig{Time: 7, State: map[string][]byte{"k": []byte("v")}}
	a, _, err := BuildGenesis(cfg)
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	b, _, err := BuildGenesis(cfg)
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("genesis must be deterministic")
	}
}

func TestMinerProposesValidBlocks(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	for i := 0; i < 5; i++ {
		b := tc.mine(t, 10)
		if err := tc.full.ProcessBlock(b); err != nil {
			t.Fatalf("ProcessBlock(%d): %v", i, err)
		}
	}
	if tc.full.Tip().Header.Height != 5 {
		t.Fatalf("full node height = %d, want 5", tc.full.Tip().Header.Height)
	}
	if tc.full.Tip().Hash() != tc.miner.Tip().Hash() {
		t.Fatal("miner and full node diverged")
	}
	// Both state replicas must agree.
	mr, err := tc.miner.State().Root()
	if err != nil {
		t.Fatalf("miner Root: %v", err)
	}
	fr, err := tc.full.State().Root()
	if err != nil {
		t.Fatalf("full Root: %v", err)
	}
	if mr != fr {
		t.Fatal("state replicas diverged")
	}
}

func TestAllWorkloadsProcessCleanly(t *testing.T) {
	for _, kind := range workload.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tc := newTestChain(t, kind)
			for i := 0; i < 3; i++ {
				b := tc.mine(t, 8)
				if err := tc.full.ProcessBlock(b); err != nil {
					t.Fatalf("ProcessBlock: %v", err)
				}
			}
		})
	}
}

func TestFullNodeRejectsTamperedStateRoot(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	b := tc.mine(t, 5)
	tampered := *b
	tampered.Header.StateRoot = chainHashOf(t, "bogus")
	// Re-seal so PoW passes and the failure is attributed to the state root.
	if err := consensus.Seal(tc.full.Params(), &tampered.Header); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	err := tc.full.ProcessBlock(&tampered)
	if err == nil {
		t.Fatal("tampered state root must be rejected")
	}
	if !errors.Is(err, ErrStateMismatch) && !errors.Is(err, statedb.ErrStateRootMismatch) {
		t.Fatalf("unexpected error class: %v", err)
	}
}

func TestFullNodeRejectsTamperedTxs(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	b := tc.mine(t, 5)
	tampered := &chain.Block{Header: b.Header, Txs: b.Txs[:4]}
	if err := tc.full.ProcessBlock(tampered); !errors.Is(err, chain.ErrBadBlock) {
		t.Fatalf("want ErrBadBlock, got %v", err)
	}
}

func TestFullNodeRejectsBadPoW(t *testing.T) {
	tc := newTestChain(t, workload.DoNothing)
	b := tc.mine(t, 2)
	tampered := *b
	tampered.Header.Consensus.Difficulty = 0
	if err := tc.full.ProcessBlock(&tampered); !errors.Is(err, consensus.ErrBadProof) {
		t.Fatalf("want ErrBadProof, got %v", err)
	}
}

func TestFullNodeRejectsNonExtendingBlock(t *testing.T) {
	tc := newTestChain(t, workload.DoNothing)
	b1 := tc.mine(t, 1)
	b2 := tc.mine(t, 1)
	// Process b2 without b1: does not extend the tip.
	if err := tc.full.ProcessBlock(b2); !errors.Is(err, ErrNotNextBlock) {
		t.Fatalf("want ErrNotNextBlock, got %v", err)
	}
	if err := tc.full.ProcessBlock(b1); err != nil {
		t.Fatalf("ProcessBlock(b1): %v", err)
	}
	if err := tc.full.ProcessBlock(b2); err != nil {
		t.Fatalf("ProcessBlock(b2): %v", err)
	}
}

// minerPosition is what a refused proposal must leave untouched.
func minerPosition(t *testing.T, m *Miner) (tip, root chash.Hash) {
	t.Helper()
	root, err := m.State().Root()
	if err != nil {
		t.Fatalf("miner Root: %v", err)
	}
	return m.Tip().Hash(), root
}

func TestMinerRejectsInvalidTx(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	tc.mine(t, 4)
	txs, err := tc.gen.Block(5)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	const bad = 3
	txs[bad].Signature[4] ^= 0xff
	tip, root := minerPosition(t, tc.miner)
	_, _, err = tc.miner.ProposeWithWrites(txs, nil)
	if !errors.Is(err, chain.ErrBadTx) {
		t.Fatalf("bad signature: got %v, want an error wrapping chain.ErrBadTx", err)
	}
	if want := fmt.Sprintf("tx %d", bad); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if gotTip, gotRoot := minerPosition(t, tc.miner); gotTip != tip || gotRoot != root {
		t.Fatal("a refused proposal moved the miner's tip or state")
	}
}

// TestProposeVerifiesEachSignatureOnce counts signature passes instead of
// timing them: a proposal of N transactions costs exactly N verifications,
// and the write set it hands out is the one a replica at the same tip can
// adopt without executing anything.
func TestProposeVerifiesEachSignatureOnce(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	const n = 12
	txs, err := tc.gen.Block(n)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	before := chain.SigVerifications()
	blk, writes, err := tc.miner.ProposeWithWrites(txs, nil)
	if err != nil {
		t.Fatalf("ProposeWithWrites: %v", err)
	}
	if got := chain.SigVerifications() - before; got != n {
		t.Fatalf("proposing %d txs verified %d signatures, want exactly %d", n, got, n)
	}
	before = chain.SigVerifications()
	if err := tc.full.AdoptBlock(blk, writes, nil); err != nil {
		t.Fatalf("replica refuses the miner's own write set: %v", err)
	}
	if got := chain.SigVerifications() - before; got != 0 {
		t.Fatalf("adopting verified %d signatures, want 0", got)
	}
	if _, mr := minerPosition(t, tc.miner); mr != blk.Header.StateRoot {
		t.Fatal("miner state is not at the proposed header's root")
	}
}

// TestFailingJournalLeavesMinerUnchanged: the journal hook runs after the
// commit and the seal, so its failure must take both back — tip, state root
// and store as before, the block never linked — and the same transactions
// must then propose at the same height.
func TestFailingJournalLeavesMinerUnchanged(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	tc.mine(t, 4)
	txs, err := tc.gen.Block(6)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	tip, root := minerPosition(t, tc.miner)
	height := tc.miner.Store().BestHeight()
	errDisk := errors.New("disk full")
	var journaled *chain.Block
	_, _, err = tc.miner.ProposeWithWrites(txs, func(blk *chain.Block, writes map[string][]byte) error {
		journaled = blk
		if len(writes) == 0 {
			t.Error("journal hook got an empty write set")
		}
		return errDisk
	})
	if !errors.Is(err, errDisk) {
		t.Fatalf("failing journal: got %v, want the hook's error", err)
	}
	if journaled == nil {
		t.Fatal("journal hook never ran")
	}
	if gotTip, gotRoot := minerPosition(t, tc.miner); gotTip != tip || gotRoot != root {
		t.Fatal("a failed journal moved the miner's tip or state")
	}
	if got := tc.miner.Store().BestHeight(); got != height {
		t.Fatalf("store at height %d after a failed journal, want %d", got, height)
	}
	if _, err := tc.miner.Store().Get(journaled.Hash()); err == nil {
		t.Fatal("the unjournaled block was linked into the store")
	}

	blk, _, err := tc.miner.ProposeWithWrites(txs, func(*chain.Block, map[string][]byte) error { return nil })
	if err != nil {
		t.Fatalf("retry after a failed journal: %v", err)
	}
	if blk.Header.Height != height+1 || blk.Hash() != journaled.Hash() {
		t.Fatalf("retry proposed height %d (same block %v), want height %d, the same block", blk.Header.Height, blk.Hash() == journaled.Hash(), height+1)
	}
}

// TestProposeRejectsReplayedNonce pins that hoisting the signature check out
// of execution did not take replay protection with it: a block of validly
// signed transactions whose nonces were already consumed is refused.
func TestProposeRejectsReplayedNonce(t *testing.T) {
	tc := newTestChain(t, workload.KVStore)
	txs, err := tc.gen.Block(6)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	if _, err := tc.miner.Propose(txs); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	tip, root := minerPosition(t, tc.miner)
	if _, err := tc.miner.Propose(txs); !errors.Is(err, statedb.ErrTxInvalid) {
		t.Fatalf("replayed block: got %v, want statedb.ErrTxInvalid", err)
	}
	if gotTip, gotRoot := minerPosition(t, tc.miner); gotTip != tip || gotRoot != root {
		t.Fatal("a refused replay moved the miner's tip or state")
	}
}

func TestNewFullNodeRejectsMismatchedGenesisState(t *testing.T) {
	genesis, _, err := BuildGenesis(GenesisConfig{Time: 1})
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	otherDB := statedb.New()
	if err := otherDB.Set([]byte("x"), []byte("y")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := NewFullNode(genesis, otherDB, vm.NewRegistry(), consensus.Params{}); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("want ErrStateMismatch, got %v", err)
	}
}

// chainHashOf builds a deterministic bogus hash for tests.
func chainHashOf(t *testing.T, s string) (h [32]byte) {
	t.Helper()
	copy(h[:], s)
	return h
}
