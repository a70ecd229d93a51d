package core

import (
	"errors"
	"fmt"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/enclave"
	"dcert/internal/statedb"
	"dcert/internal/workload"
)

// ecall runs a trusted function in the env's issuer enclave.
func ecall(t *testing.T, e *env, fn func(ctx *enclave.Context) error) error {
	t.Helper()
	return e.issuer.Enclave().Ecall(0, fn)
}

func TestEcallSigGenRejectsWrongGenesis(t *testing.T) {
	e := newEnv(t, workload.DoNothing, enclave.CostModel{})
	blk := e.mine(t, 2)

	// Build a forged "genesis" (height 0) that is not the hard-coded one.
	forgedGenesis := &chain.Block{Header: chain.Header{Height: 0, Time: 999}}
	res, err := e.issuer.Node().State().ExecuteBlock(e.issuer.Node().Registry(), blk.Txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.issuer.Node().State().UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	err = ecall(t, e, func(ctx *enclave.Context) error {
		_, err := e.issuer.Program().EcallSegmentSigGen(ctx, forgedGenesis, nil, nil, []*chain.Block{blk}, []*statedb.UpdateProof{proof})
		return err
	})
	if !errors.Is(err, ErrGenesisMismatch) {
		t.Fatalf("want ErrGenesisMismatch, got %v", err)
	}
}

func TestEcallSigGenRejectsMissingPrevCert(t *testing.T) {
	e := newEnv(t, workload.DoNothing, enclave.CostModel{})
	// Advance past genesis.
	b1 := e.mine(t, 2)
	if _, _, err := e.issuer.ProcessBlock(b1); err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	b2 := e.mine(t, 2)
	res, err := e.issuer.Node().State().ExecuteBlock(e.issuer.Node().Registry(), b2.Txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.issuer.Node().State().UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	// Previous block is height 1 (not genesis) but no certificate supplied:
	// the recursion base must not be skippable.
	err = ecall(t, e, func(ctx *enclave.Context) error {
		_, err := e.issuer.Program().EcallSegmentSigGen(ctx, b1, []*chain.Header{&b1.Header}, nil, []*chain.Block{b2}, []*statedb.UpdateProof{proof})
		return err
	})
	if !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("want ErrBadCertificate, got %v", err)
	}
}

func TestEcallSigGenRejectsSkippedHeight(t *testing.T) {
	e := newEnv(t, workload.DoNothing, enclave.CostModel{})
	b1 := e.mine(t, 2)
	cert1, _, err := e.issuer.ProcessBlock(b1)
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	b2 := e.mine(t, 2)
	if _, _, err := e.issuer.ProcessBlock(b2); err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	b3 := e.mine(t, 2)
	res, err := e.issuer.Node().State().ExecuteBlock(e.issuer.Node().Registry(), b3.Txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.issuer.Node().State().UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	// Claim b3 extends b1 (skipping b2): linkage check must fire.
	err = ecall(t, e, func(ctx *enclave.Context) error {
		_, err := e.issuer.Program().EcallSegmentSigGen(ctx, b1, []*chain.Header{&b1.Header}, cert1, []*chain.Block{b3}, []*statedb.UpdateProof{proof})
		return err
	})
	if !errors.Is(err, chain.ErrBadBlock) {
		t.Fatalf("want ErrBadBlock, got %v", err)
	}
}

// TestEcallSigGenRejectsBadSegmentInputs covers the two refutations only the
// segment entry can face: previous headers that do not end at the claimed
// tip, and a proofs/blocks count mismatch.
func TestEcallSigGenRejectsBadSegmentInputs(t *testing.T) {
	e := newEnv(t, workload.DoNothing, enclave.CostModel{})
	b1 := e.mine(t, 2)
	cert1, _, err := e.issuer.ProcessBlock(b1)
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	b2 := e.mine(t, 2)
	cert2, _, err := e.issuer.ProcessBlock(b2)
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	b3 := e.mine(t, 2)
	res, err := e.issuer.Node().State().ExecuteBlock(e.issuer.Node().Registry(), b3.Txs)
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	proof, err := e.issuer.Node().State().UpdateProofFor(res)
	if err != nil {
		t.Fatalf("UpdateProofFor: %v", err)
	}
	prog := e.issuer.Program()
	blks, proofs := []*chain.Block{b3}, []*statedb.UpdateProof{proof}

	// b1's certificate is genuine and covers b1's header, but the claimed tip
	// is b2: a valid certificate for another height must not be a base.
	err = ecall(t, e, func(ctx *enclave.Context) error {
		_, err := prog.EcallSegmentSigGen(ctx, b2, []*chain.Header{&b1.Header}, cert1, blks, proofs)
		return err
	})
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("previous headers ending below the claimed tip: want ErrBadSegment, got %v", err)
	}
	for name, ps := range map[string][]*statedb.UpdateProof{"no": nil, "two": {proof, proof}} {
		err = ecall(t, e, func(ctx *enclave.Context) error {
			_, err := prog.EcallSegmentSigGen(ctx, b2, []*chain.Header{&b2.Header}, cert2, blks, ps)
			return err
		})
		if !errors.Is(err, ErrBadSegment) {
			t.Fatalf("%s proofs for one block: want ErrBadSegment, got %v", name, err)
		}
	}
	// The honest inputs sign.
	err = ecall(t, e, func(ctx *enclave.Context) error {
		_, err := prog.EcallSegmentSigGen(ctx, b2, []*chain.Header{&b2.Header}, cert2, blks, proofs)
		return err
	})
	if err != nil {
		t.Fatalf("honest inputs refused: %v", err)
	}
}

func TestHierarchicalIndexRequiresCachedWrites(t *testing.T) {
	// A hierarchical index Ecall for a block whose write set was never
	// established inside THIS enclave must fail: the enclave cannot derive
	// index write data from an unverified block.
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	if err := e.issuer.Program().RegisterUpdater(mockIndex{name: "m"}); err != nil {
		t.Fatalf("RegisterUpdater: %v", err)
	}
	b1 := e.mine(t, 3)
	cert1, _, err := e.issuer.ProcessBlock(b1)
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	// Evict the cache by certifying more blocks than the cache holds.
	for i := 0; i < 5; i++ {
		blk := e.mine(t, 1)
		if _, _, err := e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
	}
	genesis, err := e.issuer.Node().Store().Get(e.issuer.Node().Store().Genesis())
	if err != nil {
		t.Fatalf("Get genesis: %v", err)
	}
	in := &IndexInput{Updater: "m", PrevRoot: GenesisIndexRoot, NewRoot: chash.Leaf([]byte("x"))}
	err = ecall(t, e, func(ctx *enclave.Context) error {
		_, err := e.issuer.Program().EcallHierarchicalIndex(ctx, genesis, b1, cert1, in)
		return err
	})
	if err == nil {
		t.Fatal("want error for evicted write-set cache")
	}
}

func TestProgramIDBindsParameters(t *testing.T) {
	e := newEnv(t, workload.DoNothing, enclave.CostModel{})
	prog := e.issuer.Program()
	id1 := prog.ID()

	// A program over a different genesis must have a different identity
	// (and therefore a different enclave measurement).
	otherGenesis := chash.Leaf([]byte("other chain"))
	id2 := ProgramID(otherGenesis, e.authority.PublicKey(), e.params)
	if string(id1) == string(id2) {
		t.Fatal("program identity must bind the genesis")
	}
	if enclave.Measure(id1) == enclave.Measure(id2) {
		t.Fatal("measurements must differ across program identities")
	}
}

func TestWriteCacheEviction(t *testing.T) {
	prog := NewTrustedProgram(chash.Zero, nil, consensus.Params{}, nil)
	for i := 0; i < writeCacheLimit+3; i++ {
		prog.cacheWrites(chash.Leaf([]byte(fmt.Sprintf("b%d", i))), map[string][]byte{"k": []byte("v")})
	}
	count := 0
	for i := 0; i < writeCacheLimit+3; i++ {
		if _, ok := prog.lookupWrites(chash.Leaf([]byte(fmt.Sprintf("b%d", i)))); ok {
			count++
		}
	}
	if count > writeCacheLimit {
		t.Fatalf("cache holds %d entries, limit %d", count, writeCacheLimit)
	}
}
