package query

import (
	"errors"
	"fmt"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/mbtree"
	"dcert/internal/node"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// rig wires a miner and an SP over the same genesis and KV workload.
type rig struct {
	miner *node.Miner
	sp    *ServiceProvider
	gen   *workload.Generator
	kind  workload.Kind
}

func mkNode(t testing.TB, kind workload.Kind, contracts int, params consensus.Params) *node.FullNode {
	t.Helper()
	reg := vm.NewRegistry()
	if err := workload.Register(reg, kind, contracts); err != nil {
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

func newRig(t testing.TB, kind workload.Kind) *rig {
	t.Helper()
	accounts, err := workload.NewAccounts(5)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	cfg := workload.Config{Kind: kind, Contracts: 2, Seed: 3, KeySpace: 20, CPUSortSize: 16, IOOpsPerTx: 2}
	params := consensus.Params{Difficulty: 2}
	gen, err := workload.NewGenerator(cfg, accounts)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return &rig{
		miner: node.NewMiner(mkNode(t, kind, cfg.Contracts, params)),
		sp:    NewServiceProvider(mkNode(t, kind, cfg.Contracts, params)),
		gen:   gen,
		kind:  kind,
	}
}

// advance mines n blocks of size txs and feeds them to the SP.
func (r *rig) advance(t testing.TB, n, txs int) {
	t.Helper()
	for i := 0; i < n; i++ {
		batch, err := r.gen.Block(txs)
		if err != nil {
			t.Fatalf("gen.Block: %v", err)
		}
		blk, err := r.miner.Propose(batch)
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		if err := r.sp.ProcessBlock(blk); err != nil {
			t.Fatalf("sp.ProcessBlock: %v", err)
		}
	}
}

// anyIndexedKey returns a state key present in the index.
func anyIndexedKey(t testing.TB, ix *TwoLevel) string {
	t.Helper()
	for k := range ix.lowers {
		return k
	}
	t.Fatal("index is empty")
	return ""
}

func TestHistoricalQueryRoundTrip(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 10, 15)

	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, ix)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 10)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("expected at least one historical entry")
	}
	if err := VerifyHistorical(root, res); err != nil {
		t.Fatalf("VerifyHistorical: %v", err)
	}
	// Entry versions are block heights within the window.
	for _, e := range res.Entries {
		if e.Version < 1 || e.Version > 10 {
			t.Fatalf("entry version %d outside window", e.Version)
		}
	}
}

func TestHistoricalQueryAbsentKey(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 3, 10)

	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := r.sp.HistoricalQuery("hist", "ct/never-written", 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if len(res.Entries) != 0 {
		t.Fatal("absent key must have no entries")
	}
	if err := VerifyHistorical(root, res); err != nil {
		t.Fatalf("VerifyHistorical(absent): %v", err)
	}
	// Claiming entries for an absent key must fail.
	res.Entries = []mbtree.Entry{{Version: 1, Value: []byte("forged")}}
	if err := VerifyHistorical(root, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("want ErrResultMismatch, got %v", err)
	}
}

func TestVerifyRejectsDroppedResult(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 12, 15)

	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := ""
	var res *HistoricalResult
	// Find a key with at least 2 entries so dropping one is detectable.
	for k, lower := range ix.lowers {
		if lower.Len() >= 2 {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no key with multiple versions")
	}
	res, err = r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	res.Entries = res.Entries[:len(res.Entries)-1] // SP hides a result
	if err := VerifyHistorical(root, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("want ErrResultMismatch, got %v", err)
	}
}

func TestVerifyRejectsTamperedValue(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 5, 10)

	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, ix)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if len(res.Entries) == 0 {
		t.Skip("no entries")
	}
	res.Entries[0].Value = []byte("tampered")
	if err := VerifyHistorical(root, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("want ErrResultMismatch, got %v", err)
	}
}

func TestVerifyRejectsStaleRoot(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 5, 10)
	staleRoot, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	r.advance(t, 5, 10)
	key := anyIndexedKey(t, ix)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if err := VerifyHistorical(staleRoot, res); err == nil {
		t.Fatal("proof against newer index must not verify under stale root")
	}
}

func TestReplayMatchesApply(t *testing.T) {
	// The core certification property: the enclave-side stateless Replay
	// must reproduce exactly the root the SP reaches via Apply.
	r := newRig(t, workload.SmallBank)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	// Shadow replica used to produce witnesses on pre-block state.
	shadow, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}

	for i := 0; i < 8; i++ {
		batch, err := r.gen.Block(12)
		if err != nil {
			t.Fatalf("gen.Block: %v", err)
		}
		blk, err := r.miner.Propose(batch)
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		writes, err := r.sp.Node().ValidateBlock(blk)
		if err != nil {
			t.Fatalf("ValidateBlock: %v", err)
		}
		prevRoot, err := shadow.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		witness, err := shadow.UpdateWitness(blk, writes)
		if err != nil {
			t.Fatalf("UpdateWitness: %v", err)
		}
		replayRoot, err := shadow.Replay(prevRoot, witness, blk, writes)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if err := shadow.Apply(blk, writes); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		applyRoot, err := shadow.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		if replayRoot != applyRoot {
			t.Fatalf("block %d: replay root != apply root", i)
		}
		if err := r.sp.ProcessBlock(blk); err != nil {
			t.Fatalf("sp.ProcessBlock: %v", err)
		}
	}
	// SP's index and the shadow agree.
	a, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	b, err := shadow.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if a != b {
		t.Fatal("SP index and shadow replica diverged")
	}
}

func TestReplayRejectsTamperedWitness(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	batch, err := r.gen.Block(10)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	blk, err := r.miner.Propose(batch)
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	writes, err := r.sp.Node().ValidateBlock(blk)
	if err != nil {
		t.Fatalf("ValidateBlock: %v", err)
	}
	prevRoot, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	witness, err := ix.UpdateWitness(blk, writes)
	if err != nil {
		t.Fatalf("UpdateWitness: %v", err)
	}
	witness[len(witness)/2] ^= 0xff
	if _, err := ix.Replay(prevRoot, witness, blk, writes); err == nil {
		t.Fatal("tampered witness must not replay")
	}
}

func TestKeywordQueryRoundTrip(t *testing.T) {
	r := newRig(t, workload.SmallBank)
	ix, err := NewKeywordIndex("kw")
	if err != nil {
		t.Fatalf("NewKeywordIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 6, 15)

	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	// Every SmallBank tx carries its contract name; method names vary.
	contract := workload.ContractName(workload.SmallBank, 0)
	res, err := r.sp.KeywordQuery("kw", []string{contract, "deposit_check"})
	if err != nil {
		t.Fatalf("KeywordQuery: %v", err)
	}
	if err := VerifyKeyword(root, res); err != nil {
		t.Fatalf("VerifyKeyword: %v", err)
	}
	// Matches must actually be deposit_check txs on that contract.
	for _, m := range res.Matches {
		height := PostingHeight(m.Version)
		blk, err := r.sp.Node().Store().AtHeight(height)
		if err != nil {
			t.Fatalf("AtHeight: %v", err)
		}
		found := false
		for _, tx := range blk.Txs {
			if tx.Hash() == m.TxHash && tx.Contract == contract && tx.Method == "deposit_check" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("match %x does not correspond to a matching tx", m.TxHash)
		}
	}
}

func TestKeywordQueryConjunctionSemantics(t *testing.T) {
	r := newRig(t, workload.SmallBank)
	ix, err := NewKeywordIndex("kw")
	if err != nil {
		t.Fatalf("NewKeywordIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 6, 15)

	// Two mutually exclusive methods can never co-occur in one tx.
	res, err := r.sp.KeywordQuery("kw", []string{"deposit_check", "update_saving"})
	if err != nil {
		t.Fatalf("KeywordQuery: %v", err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("exclusive conjunction returned %d matches", len(res.Matches))
	}
	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if err := VerifyKeyword(root, res); err != nil {
		t.Fatalf("VerifyKeyword: %v", err)
	}
}

func TestVerifyKeywordRejectsForgedMatch(t *testing.T) {
	r := newRig(t, workload.SmallBank)
	ix, err := NewKeywordIndex("kw")
	if err != nil {
		t.Fatalf("NewKeywordIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 4, 10)
	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := r.sp.KeywordQuery("kw", []string{"deposit_check"})
	if err != nil {
		t.Fatalf("KeywordQuery: %v", err)
	}
	res.Matches = append(res.Matches, Posting{Version: 999999, TxHash: chash.Leaf([]byte("ghost"))})
	if err := VerifyKeyword(root, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("want ErrResultMismatch, got %v", err)
	}
}

func TestKeywordsExtraction(t *testing.T) {
	tx := &chain.Transaction{
		Contract: "SB-0001",
		Method:   "send_payment",
		Args:     [][]byte{[]byte("Stock Exchange"), []byte("Bank"), {0x01, 0x02}},
	}
	kws := Keywords(tx)
	want := map[string]bool{"SB-0001": true, "send_payment": true, "stock": true, "exchange": true, "bank": true}
	if len(kws) != len(want) {
		t.Fatalf("Keywords = %v", kws)
	}
	for _, k := range kws {
		if !want[k] {
			t.Fatalf("unexpected keyword %q", k)
		}
	}
}

func TestPostingVersionRoundTrip(t *testing.T) {
	v := PostingVersion(12345, 678)
	if PostingHeight(v) != 12345 {
		t.Fatalf("PostingHeight = %d", PostingHeight(v))
	}
	if PostingVersion(1, 2) >= PostingVersion(2, 0) {
		t.Fatal("posting versions must order by height first")
	}
}

func TestSkipListBaselineRoundTrip(t *testing.T) {
	r := newRig(t, workload.KVStore)
	base := NewSkipListIndex("base", "ct/")
	twol, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(twol); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	// Feed the baseline the same blocks.
	for i := 0; i < 8; i++ {
		batch, err := r.gen.Block(12)
		if err != nil {
			t.Fatalf("gen.Block: %v", err)
		}
		blk, err := r.miner.Propose(batch)
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		writes, err := r.sp.Node().ValidateBlock(blk)
		if err != nil {
			t.Fatalf("ValidateBlock: %v", err)
		}
		if err := r.sp.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		if err := base.Apply(blk, writes); err != nil {
			t.Fatalf("baseline Apply: %v", err)
		}
	}
	root, err := base.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, twol)
	entries, proof, err := base.QueryRange(key, 0, 100)
	if err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	if err := VerifySkipRange(root, key, 0, 100, entries, proof); err != nil {
		t.Fatalf("VerifySkipRange: %v", err)
	}
	// Both index designs return the same answer set.
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if len(res.Entries) != len(entries) {
		t.Fatalf("baseline %d entries, two-level %d", len(entries), len(res.Entries))
	}
	for i := range entries {
		if entries[i].Version != res.Entries[i].Version {
			t.Fatalf("entry %d version mismatch", i)
		}
	}
	// Tampered claims fail.
	if len(entries) > 0 {
		entries[0].Value = []byte("tampered")
		if err := VerifySkipRange(root, key, 0, 100, entries, proof); !errors.Is(err, ErrResultMismatch) {
			t.Fatalf("want ErrResultMismatch, got %v", err)
		}
	}
}

func TestSPRejectsDuplicateIndex(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("dup", "")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err == nil {
		t.Fatal("want error for duplicate index")
	}
	if _, err := r.sp.Index("ghost"); err == nil {
		t.Fatal("want error for unknown index")
	}
	if _, err := r.sp.KeywordQuery("dup", nil); err == nil {
		t.Fatal("want error for empty keyword query")
	}
}

func TestProofSizeReporting(t *testing.T) {
	r := newRig(t, workload.KVStore)
	ix, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := r.sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 5, 10)
	key := anyIndexedKey(t, ix)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if res.Proof.EncodedSize() <= 0 {
		t.Fatal("proof size must be positive")
	}
	kres, err := r.sp.KeywordQuery("hist", []string{fmt.Sprintf("%v", key)})
	if err != nil {
		t.Fatalf("KeywordQuery: %v", err)
	}
	if kres.ProofSize() <= 0 {
		t.Fatal("keyword proof size must be positive")
	}
}
