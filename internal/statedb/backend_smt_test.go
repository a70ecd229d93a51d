package statedb

import (
	"bytes"
	"errors"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/smt"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// newSMTEnv mirrors newTestEnv with the SMT backend.
func newSMTEnv(t *testing.T, kind workload.Kind) *testEnv {
	t.Helper()
	e := newTestEnv(t, kind)
	db, err := NewWithBackend(BackendSMT)
	if err != nil {
		t.Fatalf("NewWithBackend: %v", err)
	}
	e.db = db
	return e
}

func TestSMTBackendBasics(t *testing.T) {
	db, err := NewWithBackend(BackendSMT)
	if err != nil {
		t.Fatalf("NewWithBackend: %v", err)
	}
	if db.Backend() != BackendSMT {
		t.Fatal("wrong backend kind")
	}
	empty, err := db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if err := db.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q", got)
	}
	root, err := db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root == empty {
		t.Fatal("Set must change the root")
	}
	if _, err := db.Prove([]byte("k")); err == nil {
		t.Fatal("SMT backend must refuse MPT path proofs")
	}
}

func TestNewWithBackendRejectsUnknown(t *testing.T) {
	if _, err := NewWithBackend(BackendKind(99)); err == nil {
		t.Fatal("want error for unknown backend")
	}
	if BackendMPT.String() != "mpt" || BackendSMT.String() != "smt" {
		t.Fatal("BackendKind.String mismatch")
	}
}

func TestSMTReplayMatchesCommit(t *testing.T) {
	for _, kind := range workload.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			e := newSMTEnv(t, kind)
			for round := 0; round < 2; round++ {
				txs := e.block(t, 20)
				prevRoot, err := e.db.Root()
				if err != nil {
					t.Fatalf("Root: %v", err)
				}
				res, err := e.db.ExecuteBlock(e.reg, txs)
				if err != nil {
					t.Fatalf("ExecuteBlock: %v", err)
				}
				proof, err := e.db.UpdateProofFor(res)
				if err != nil {
					t.Fatalf("UpdateProofFor: %v", err)
				}
				if proof.Kind != BackendSMT || proof.SMT == nil {
					t.Fatal("proof must carry the SMT multiproof")
				}
				replayRoot, _, err := ReplayBlockWithWrites(prevRoot, proof, e.reg, txs)
				if err != nil {
					t.Fatalf("ReplayBlockWithWrites: %v", err)
				}
				commitRoot, err := e.db.Commit(res.WriteSet)
				if err != nil {
					t.Fatalf("Commit: %v", err)
				}
				if replayRoot != commitRoot {
					t.Fatalf("round %d: replay root != commit root", round)
				}
			}
		})
	}
}

func TestSMTReplayRejectsForgedPrior(t *testing.T) {
	e := newSMTEnv(t, workload.SmallBank)
	txs := e.block(t, 15)
	prevRoot, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := e.db.ExecuteBlock(e.reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.db.UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	for k := range proof.Prior {
		proof.Prior[k] = []byte("forged prior balance")
		break
	}
	if _, _, err := ReplayBlockWithWrites(prevRoot, proof, e.reg, txs); !errors.Is(err, ErrReadSetMismatch) {
		t.Fatalf("want ErrReadSetMismatch, got %v", err)
	}
}

func TestSMTReplayRejectsForgedReadSet(t *testing.T) {
	e := newSMTEnv(t, workload.SmallBank)
	txs := e.block(t, 15)
	prevRoot, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := e.db.ExecuteBlock(e.reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.db.UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	if len(proof.ReadSet) == 0 {
		t.Skip("no reads")
	}
	for k := range proof.ReadSet {
		proof.ReadSet[k] = []byte("inconsistent declaration")
		break
	}
	if _, _, err := ReplayBlockWithWrites(prevRoot, proof, e.reg, txs); !errors.Is(err, ErrReadSetMismatch) {
		t.Fatalf("want ErrReadSetMismatch, got %v", err)
	}
}

func TestSMTReplayRejectsUndeclaredBlock(t *testing.T) {
	e := newSMTEnv(t, workload.KVStore)
	blkA := e.block(t, 10)
	prevRoot, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	resA, err := e.db.ExecuteBlock(e.reg, blkA)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proofA, err := e.db.UpdateProofFor(resA)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	blkB := e.block(t, 10)
	if _, _, err := ReplayBlockWithWrites(prevRoot, proofA, e.reg, blkB); err == nil {
		t.Fatal("different block must not replay over a mismatched prior set")
	}
}

func TestSMTEmptyBlockProof(t *testing.T) {
	// A block with zero transactions touches no state at all: the sentinel
	// proof path must still produce a valid (identity) root update.
	e := newSMTEnv(t, workload.DoNothing)
	prevRoot, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := e.db.ExecuteBlock(e.reg, nil)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.db.UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	replayRoot, _, err := ReplayBlockWithWrites(prevRoot, proof, e.reg, nil)
	if err != nil {
		t.Fatalf("ReplayBlockWithWrites: %v", err)
	}
	if replayRoot != prevRoot {
		t.Fatal("empty block must preserve the root")
	}
}

func TestNonceReplayProtection(t *testing.T) {
	// Re-including a transaction (same nonce) must invalidate the block.
	e := newTestEnv(t, workload.KVStore)
	txs := e.block(t, 3)
	res, err := e.db.ExecuteBlock(e.reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if _, err := e.db.Commit(res.WriteSet); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Replay the very same transactions against the advanced state.
	if _, err := e.db.ExecuteBlock(e.reg, txs); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("want ErrTxInvalid for replayed txs, got %v", err)
	}
	// Duplicating one tx inside a single block is also rejected.
	fresh := e.block(t, 2)
	dup := append(fresh, fresh[0])
	if _, err := e.db.ExecuteBlock(e.reg, dup); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("want ErrTxInvalid for in-block duplicate, got %v", err)
	}
}

func TestNonceBumpSurvivesRevert(t *testing.T) {
	// A reverted transaction still consumes its nonce, so the next tx from
	// the same sender (with the following nonce) is accepted.
	accounts, err := workload.NewAccounts(1)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	reg := newSBRegistry(t)
	db := New()
	amount := func(v uint64) []byte {
		b := make([]byte, 8)
		b[7] = byte(v)
		return b
	}
	mk := func(nonce uint64, method string, args ...[]byte) *chain.Transaction {
		tx := &chain.Transaction{Nonce: nonce, Contract: workload.ContractName(workload.SmallBank, 0), Method: method, Args: args}
		if err := tx.Sign(accounts[0].Key); err != nil {
			t.Fatalf("Sign: %v", err)
		}
		return tx
	}
	txs := []*chain.Transaction{
		mk(0, "write_check", []byte("a"), amount(5)), // overdraft: reverts
		mk(1, "deposit_check", []byte("a"), amount(9)),
	}
	res, err := db.ExecuteBlock(reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if len(res.Reverted) != 1 || res.Reverted[0] != 0 {
		t.Fatalf("Reverted = %v, want [0]", res.Reverted)
	}
}

// newSBRegistry builds a registry with one SmallBank contract.
func newSBRegistry(t *testing.T) *vm.Registry {
	t.Helper()
	reg := vm.NewRegistry()
	if err := workload.Register(reg, workload.SmallBank, 1); err != nil {
		t.Fatalf("Register: %v", err)
	}
	return reg
}

func TestSMTMultiproofMarshalRoundTrip(t *testing.T) {
	tree, err := smt.New(64)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	keys := make([]smt.Key, 10)
	for i := range keys {
		keys[i] = smt.KeyFromString(string(rune('a' + i)))
		tree.Put(keys[i], valueDigest([]byte{byte(i + 1)}))
	}
	proof, err := tree.Prove(keys[:4])
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	parsed, err := smt.UnmarshalMultiproof(proof.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalMultiproof: %v", err)
	}
	values := make(map[smt.Key]chash.Hash, 4)
	for i := 0; i < 4; i++ {
		values[keys[i]] = valueDigest([]byte{byte(i + 1)})
	}
	if err := parsed.Verify(tree.Root(), values); err != nil {
		t.Fatalf("round-tripped proof must verify: %v", err)
	}
	if _, err := smt.UnmarshalMultiproof([]byte{1, 2}); err == nil {
		t.Fatal("want error for garbage proof")
	}
}

func TestBackendsAgreeOnValues(t *testing.T) {
	// The same block sequence over the MPT and SMT backends must produce
	// identical state contents (commitments differ by construction).
	mptEnv := newTestEnv(t, workload.SmallBank)
	smtDB, err := NewWithBackend(BackendSMT)
	if err != nil {
		t.Fatalf("NewWithBackend: %v", err)
	}
	touched := make(map[string]bool)
	for round := 0; round < 3; round++ {
		txs := mptEnv.block(t, 15)
		resA, err := mptEnv.db.ExecuteBlock(mptEnv.reg, txs)
		if err != nil {
			t.Fatalf("mpt ExecuteBlock: %v", err)
		}
		resB, err := smtDB.ExecuteBlock(mptEnv.reg, txs)
		if err != nil {
			t.Fatalf("smt ExecuteBlock: %v", err)
		}
		if len(resA.WriteSet) != len(resB.WriteSet) {
			t.Fatalf("round %d: write-set sizes differ: %d vs %d", round, len(resA.WriteSet), len(resB.WriteSet))
		}
		for k, v := range resA.WriteSet {
			if !bytes.Equal(resB.WriteSet[k], v) {
				t.Fatalf("round %d: write %q differs across backends", round, k)
			}
			touched[k] = true
		}
		if _, err := mptEnv.db.Commit(resA.WriteSet); err != nil {
			t.Fatalf("mpt Commit: %v", err)
		}
		if _, err := smtDB.Commit(resB.WriteSet); err != nil {
			t.Fatalf("smt Commit: %v", err)
		}
	}
	// Every touched key reads back identically from both backends.
	for k := range touched {
		a, err := mptEnv.db.Get([]byte(k))
		if err != nil {
			t.Fatalf("mpt Get: %v", err)
		}
		b, err := smtDB.Get([]byte(k))
		if err != nil {
			t.Fatalf("smt Get: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("key %q differs across backends", k)
		}
	}
	if len(touched) == 0 {
		t.Fatal("no keys to compare")
	}
}
