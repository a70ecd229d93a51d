package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// testEnv bundles a populated DB, a registry with KV contracts, and signed
// transactions.
type testEnv struct {
	db  *DB
	reg *vm.Registry
	gen *workload.Generator
}

func newTestEnv(t *testing.T, kind workload.Kind) *testEnv {
	t.Helper()
	accounts, err := workload.NewAccounts(8)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	reg := vm.NewRegistry()
	cfg := workload.Config{Kind: kind, Contracts: 4, Seed: 1, KeySpace: 50, CPUSortSize: 64, IOOpsPerTx: 4}
	if err := workload.Register(reg, kind, cfg.Contracts); err != nil {
		t.Fatalf("Register: %v", err)
	}
	gen, err := workload.NewGenerator(cfg, accounts)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return &testEnv{db: New(), reg: reg, gen: gen}
}

func (e *testEnv) block(t *testing.T, n int) []*chain.Transaction {
	t.Helper()
	txs, err := e.gen.Block(n)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	return txs
}

func TestExecuteBlockDoesNotMutate(t *testing.T) {
	e := newTestEnv(t, workload.KVStore)
	before, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if _, err := e.db.ExecuteBlock(e.reg, e.block(t, 20)); err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	after, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if before != after {
		t.Fatal("ExecuteBlock must not change the committed state")
	}
}

func TestExecuteCommitReadBack(t *testing.T) {
	e := newTestEnv(t, workload.KVStore)
	txs := e.block(t, 30)
	res, err := e.db.ExecuteBlock(e.reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if len(res.WriteSet) == 0 {
		t.Fatal("KV workload must produce writes")
	}
	if _, err := e.db.Commit(res.WriteSet); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for k, v := range res.WriteSet {
		got, err := e.db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %q, want %q", k, got, v)
		}
	}
}

func TestReadSetRecordsPreStateOnly(t *testing.T) {
	e := newTestEnv(t, workload.SmallBank)
	// Seed a balance so some reads hit existing state.
	if err := e.db.Set([]byte("seeded"), []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	txs := e.block(t, 40)
	res, err := e.db.ExecuteBlock(e.reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	for k, v := range res.ReadSet {
		got, err := e.db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("read set value for %q is not the pre-state value", k)
		}
	}
}

func TestReplayBlockMatchesCommit(t *testing.T) {
	for _, kind := range workload.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			e := newTestEnv(t, kind)
			// Two rounds so the second block sees non-empty pre-state.
			for round := 0; round < 2; round++ {
				txs := e.block(t, 25)
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

func TestReplayBlockRejectsForgedReadSet(t *testing.T) {
	e := newTestEnv(t, workload.SmallBank)
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
	// Forge one read value: the enclave-side replay must detect it.
	for k := range proof.ReadSet {
		proof.ReadSet[k] = []byte("forged-balance")
		break
	}
	if len(proof.ReadSet) == 0 {
		t.Skip("workload produced no reads")
	}
	if _, _, err := ReplayBlockWithWrites(prevRoot, proof, e.reg, txs); !errors.Is(err, ErrReadSetMismatch) {
		t.Fatalf("want ErrReadSetMismatch, got %v", err)
	}
}

func TestReplayBlockRejectsTamperedTxs(t *testing.T) {
	e := newTestEnv(t, workload.KVStore)
	txs := e.block(t, 10)
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
	txs[3].Args = [][]byte{[]byte("evil-key"), []byte("evil-value")} // breaks signature
	if _, _, err := ReplayBlockWithWrites(prevRoot, proof, e.reg, txs); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("want ErrTxInvalid, got %v", err)
	}
}

func TestReplayBlockRejectsInsufficientWitness(t *testing.T) {
	e := newTestEnv(t, workload.KVStore)
	// Commit one block so state is non-trivial.
	txs := e.block(t, 20)
	res, err := e.db.ExecuteBlock(e.reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if _, err := e.db.Commit(res.WriteSet); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	prevRoot, err := e.db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	// Proof built for block A cannot replay unrelated block B.
	blkA := e.block(t, 10)
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
		t.Fatal("replaying a different block over a mismatched witness must fail")
	}
}

func TestRevertedTransactionsKeepStateConsistent(t *testing.T) {
	// A SmallBank overdraft reverts; the write sets on both sides must agree.
	accounts, err := workload.NewAccounts(2)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	reg := vm.NewRegistry()
	if err := workload.Register(reg, workload.SmallBank, 1); err != nil {
		t.Fatalf("Register: %v", err)
	}
	db := New()

	amount := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[7-i] = byte(v >> (8 * i))
		}
		return b
	}
	mkTx := func(nonce uint64, method string, args ...[]byte) *chain.Transaction {
		tx := &chain.Transaction{
			Nonce:    nonce,
			Contract: workload.ContractName(workload.SmallBank, 0),
			Method:   method,
			Args:     args,
		}
		if err := tx.Sign(accounts[0].Key); err != nil {
			t.Fatalf("Sign: %v", err)
		}
		return tx
	}
	txs := []*chain.Transaction{
		mkTx(0, "deposit_check", []byte("alice"), amount(100)),
		mkTx(1, "write_check", []byte("alice"), amount(500)), // overdraft: reverts
		mkTx(2, "write_check", []byte("alice"), amount(30)),
	}
	prevRoot, err := db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := db.ExecuteBlock(reg, txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if len(res.Reverted) != 1 || res.Reverted[0] != 1 {
		t.Fatalf("Reverted = %v, want [1]", res.Reverted)
	}
	proof, err := db.UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	replayRoot, _, err := ReplayBlockWithWrites(prevRoot, proof, reg, txs)
	if err != nil {
		t.Fatalf("ReplayBlockWithWrites: %v", err)
	}
	commitRoot, err := db.Commit(res.WriteSet)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if replayRoot != commitRoot {
		t.Fatal("revert semantics diverge between execute and replay")
	}
	// Alice ends with 100 - 30 = 70.
	key := []byte("ct/" + workload.ContractName(workload.SmallBank, 0) + "/checking/alice")
	got, err := db.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, amount(70)) {
		t.Fatalf("alice checking = %x, want 70", got)
	}
}

func TestUpdateProofEncodedSizePositive(t *testing.T) {
	e := newTestEnv(t, workload.KVStore)
	res, err := e.db.ExecuteBlock(e.reg, e.block(t, 10))
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.db.UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	if proof.EncodedSize() <= 0 {
		t.Fatal("proof size must be positive")
	}
}

func TestSetGetDirect(t *testing.T) {
	db := New()
	for i := 0; i < 50; i++ {
		if err := db.Set([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	got, err := db.Get([]byte("k7"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, []byte("v7")) {
		t.Fatalf("Get = %q", got)
	}
	root, err := db.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root.IsZero() {
		t.Fatal("populated DB root must not be zero")
	}
}

// Revert takes back a commit — a complete one, and one that stopped at a
// value the backend refuses — on both commitment structures.
func TestCaptureUndoRevertRestoresRoot(t *testing.T) {
	for _, kind := range []BackendKind{BackendMPT, BackendSMT} {
		db, err := NewWithBackend(kind)
		if err != nil {
			t.Fatalf("NewWithBackend: %v", err)
		}
		for _, k := range []string{"a", "b", "c"} {
			if err := db.Set([]byte(k), []byte("old-"+k)); err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
		before, err := db.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		for name, writes := range map[string]map[string][]byte{
			"complete": {"a": []byte("new"), "fresh": []byte("v")},
			"partial":  {"a": []byte("new"), "b": nil, "fresh": []byte("v")},
		} {
			undo, err := db.CaptureUndo(writes)
			if err != nil {
				t.Fatalf("CaptureUndo: %v", err)
			}
			if _, err := db.Commit(writes); (err != nil) != (name == "partial") {
				t.Fatalf("%s/%s: Commit: %v", kind, name, err)
			}
			if err := db.Revert(undo); err != nil {
				t.Fatalf("Revert: %v", err)
			}
			after, err := db.Root()
			if err != nil {
				t.Fatalf("Root: %v", err)
			}
			if after != before {
				t.Fatalf("%s/%s: root differs after revert", kind, name)
			}
			if v, err := db.Get([]byte("fresh")); err != nil || v != nil {
				t.Fatalf("%s/%s: key absent before the commit is back as %q (%v)", kind, name, v, err)
			}
		}
	}
}
