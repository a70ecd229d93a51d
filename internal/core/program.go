package core

import (
	"fmt"
	"sync"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/enclave"
	"dcert/internal/statedb"
	"dcert/internal/vm"
)

// IndexUpdater is the stateless, deterministic index-update logic baked into
// the trusted program for one authenticated index. Implementations (package
// query) must derive the index updates from the block itself (plus its
// verified state write set) — never from untrusted claims — and replay them
// over a witness, exactly like state replay.
type IndexUpdater interface {
	// Name identifies the index instance.
	Name() string
	// Replay applies the index updates implied by blk (whose state write
	// set is writes) on top of prevRoot, resolving index nodes from the
	// witness. It returns the new index root. Missing or tampered witness
	// data must fail, not fabricate.
	Replay(prevRoot chash.Hash, witness []byte, blk *chain.Block, writes map[string][]byte) (chash.Hash, error)
}

// GenesisIndexRoot is H_genesis^idx: every authenticated index starts empty.
var GenesisIndexRoot = chash.Zero

// ProgramID builds the canonical identity of the DCert trusted program. The
// enclave measurement is the digest of these bytes, so two CIs running the
// same program over the same chain parameters are mutually verifiable.
func ProgramID(genesis chash.Hash, authorityPK *chash.PublicKey, params consensus.Params) []byte {
	e := chash.NewEncoder(256)
	e.PutString("dcert-trusted-program-v1")
	e.PutHash(genesis)
	e.PutBytes(authorityPK.Marshal())
	e.PutUint32(params.Difficulty)
	return e.Bytes()
}

// TrustedProgram is the in-enclave certificate-construction program
// (Alg. 2). Its fields are fixed at initialization and are part of the
// program identity; the write-set cache is enclave-resident scratch state
// used by the hierarchical scheme.
type TrustedProgram struct {
	genesis     chash.Hash
	authorityPK *chash.PublicKey
	params      consensus.Params
	reg         *vm.Registry
	updaters    map[string]IndexUpdater

	// mu guards the enclave-resident write-set cache and the TCS count.
	mu sync.Mutex
	// writeCache keeps the verified state write set of recently certified
	// blocks so hierarchical index certification (Alg. 5) can derive index
	// write data without re-executing the block. It lives entirely inside
	// the enclave, so its contents are trusted. cacheOrder tracks insertion
	// order for FIFO eviction — eviction must be deterministic so a
	// pipelined and a sequential issuer keep identical cache contents.
	writeCache map[chash.Hash]map[string][]byte
	cacheOrder []chash.Hash
	// parallelism is the number of enclave threads (TCS entries) available
	// to blk_verify_t for transaction-signature verification. 1 = the
	// paper's single-threaded enclave.
	parallelism int
}

// NewTrustedProgram builds the trusted program for a chain.
func NewTrustedProgram(genesis chash.Hash, authorityPK *chash.PublicKey, params consensus.Params, reg *vm.Registry) *TrustedProgram {
	return &TrustedProgram{
		genesis:     genesis,
		authorityPK: authorityPK,
		params:      params,
		reg:         reg,
		updaters:    make(map[string]IndexUpdater),
		writeCache:  make(map[chash.Hash]map[string][]byte),
	}
}

// ID returns the program identity bytes (measured by the enclave).
func (p *TrustedProgram) ID() []byte {
	return ProgramID(p.genesis, p.authorityPK, p.params)
}

// SetParallelism declares how many enclave threads (TCS entries) the trusted
// program may use for transaction-signature verification inside
// blk_verify_t. SGX enclaves are multi-threadable by provisioning multiple
// TCS pages; signature checks are data-independent, so they parallelize
// without changing any verified output. Values below 1 are treated as 1.
// The thread count is scratch configuration, not program identity: it does
// not alter the measurement, exactly as a TCS count does not alter
// MRENCLAVE's code pages.
func (p *TrustedProgram) SetParallelism(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 1 {
		n = 1
	}
	p.parallelism = n
}

// Parallelism reports the configured enclave thread count.
func (p *TrustedProgram) Parallelism() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.parallelism < 1 {
		return 1
	}
	return p.parallelism
}

// RegisterUpdater adds index-update logic to the program. In a real
// deployment this would be part of the measured enclave binary; registering
// a new index type corresponds to deploying an extended program.
func (p *TrustedProgram) RegisterUpdater(u IndexUpdater) error {
	if u == nil {
		return fmt.Errorf("core: nil index updater")
	}
	if _, ok := p.updaters[u.Name()]; ok {
		return fmt.Errorf("core: updater %q already registered", u.Name())
	}
	p.updaters[u.Name()] = u
	return nil
}

// certVerifyT is cert_verify_t (Alg. 2 lines 25-32): validate a peer
// certificate against an expected digest, inside the enclave.
func (p *TrustedProgram) certVerifyT(ctx *enclave.Context, expectDigest chash.Hash, cert *Certificate) error {
	return cert.Verify(p.authorityPK, ctx.Measurement(), expectDigest)
}

// blkVerifyT is blk_verify_t (Alg. 2 lines 10-24): verify that blk correctly
// extends prev, replaying the state transition over the update proof. It
// returns the verified state write set (reused by index certification).
func (p *TrustedProgram) blkVerifyT(prev, blk *chain.Block, proof *statedb.UpdateProof) (map[string][]byte, error) {
	// Line 14: linkage and height.
	if blk.Header.PrevHash != prev.Header.Hash() {
		return nil, fmt.Errorf("%w: previous hash mismatch", chain.ErrBadBlock)
	}
	if blk.Header.Height != prev.Header.Height+1 {
		return nil, fmt.Errorf("%w: height %d after %d", chain.ErrBadBlock, blk.Header.Height, prev.Header.Height)
	}
	// Line 15: verify_cons.
	if err := consensus.Verify(p.params, &blk.Header); err != nil {
		return nil, err
	}
	// Line 16: verify_hash(H_tx, {tx}).
	if err := blk.VerifyTxRoot(); err != nil {
		return nil, err
	}
	// Lines 17-23: read-set verification, re-execution, write-set
	// verification, and state-root update, all against the witness. With
	// more than one enclave thread the signature checks run first across
	// all TCS entries, then the (inherently sequential) stateful replay
	// skips them.
	var newRoot chash.Hash
	var writes map[string][]byte
	var err error
	if tcs := p.Parallelism(); tcs > 1 {
		if err = chain.VerifyTxs(blk.Txs, tcs); err != nil {
			return nil, fmt.Errorf("%w: %v", statedb.ErrTxInvalid, err)
		}
		newRoot, writes, err = statedb.ReplayBlockWithWritesPreverified(prev.Header.StateRoot, proof, p.reg, blk.Txs)
	} else {
		newRoot, writes, err = statedb.ReplayBlockWithWrites(prev.Header.StateRoot, proof, p.reg, blk.Txs)
	}
	if err != nil {
		return nil, err
	}
	if newRoot != blk.Header.StateRoot {
		return nil, fmt.Errorf("%w: replayed %s, header %s", statedb.ErrStateRootMismatch, newRoot, blk.Header.StateRoot)
	}
	return writes, nil
}

// EcallSegmentSigGen is ecall_sig_gen (Alg. 2 lines 1-9) with the recursion
// unit extended from one block to K: ONE enclave entry that verifies the
// previous segment's certificate (or genesis), verifies all K blocks of the
// new segment as a chained run, caches their write sets, and signs the
// segment digest. It is the only trusted block-certification entry. K > 1
// amortizes the fixed per-Ecall cost (transition + two signature operations)
// across K state transitions; the inductive trust argument is unchanged
// because the previous certificate covers the previous segment's digest,
// whose last header is exactly the block the new segment's first header must
// extend.
//
// prevHeaders are the headers covered by prevCert (so their SegmentDigest is
// prevCert's signed digest); their last element must be prev's header. For a
// one-block segment over a one-block predecessor both digests collapse to
// BlockDigest: this is the paper's per-block ecall_sig_gen, byte for byte
// (golden-pinned by seg_k1_cert).
func (p *TrustedProgram) EcallSegmentSigGen(ctx *enclave.Context, prev *chain.Block, prevHeaders []*chain.Header, prevCert *Certificate, blks []*chain.Block, proofs []*statedb.UpdateProof) ([]byte, error) {
	if len(blks) == 0 {
		return nil, fmt.Errorf("%w: empty segment", ErrBadSegment)
	}
	if len(proofs) != len(blks) {
		return nil, fmt.Errorf("%w: %d proofs for %d blocks", ErrBadSegment, len(proofs), len(blks))
	}
	// Verify the recursion base: genesis, or the previous segment's
	// certificate — which must be anchored at the claimed previous tip.
	if prev.Header.Height == 0 {
		if prev.Hash() != p.genesis {
			return nil, fmt.Errorf("%w: %s", ErrGenesisMismatch, prev.Hash())
		}
	} else {
		if len(prevHeaders) == 0 {
			return nil, fmt.Errorf("%w: missing previous segment headers", ErrBadSegment)
		}
		if prevHeaders[len(prevHeaders)-1].Hash() != prev.Hash() {
			return nil, fmt.Errorf("%w: previous segment does not end at claimed tip", ErrBadSegment)
		}
		if err := p.certVerifyT(ctx, SegmentDigest(prevHeaders), prevCert); err != nil {
			return nil, err
		}
	}
	// Verify the whole segment as a chained run of block transitions.
	cur := prev
	for i, blk := range blks {
		writes, err := p.blkVerifyT(cur, blk, proofs[i])
		if err != nil {
			return nil, fmt.Errorf("segment block %d (height %d): %w", i, blk.Header.Height, err)
		}
		p.cacheWrites(blk.Hash(), writes)
		cur = blk
	}
	return ctx.Sign(SegmentDigest(segmentHeaders(blks)))
}

// IndexInput bundles the per-index inputs of Alg. 4 / Alg. 5: the previous
// index root and certificate, the claimed new root, and the update witness.
type IndexInput struct {
	// Updater names the registered index-update logic.
	Updater string
	// PrevRoot is H_{i-1}^idx.
	PrevRoot chash.Hash
	// PrevCert is cert_{i-1}^idx (nil when bootstrapping from genesis).
	PrevCert *Certificate
	// NewRoot is the claimed H_i^idx.
	NewRoot chash.Hash
	// Witness is π_i^idx, the index update proof.
	Witness []byte
}

// replayIndex runs lines 8-10 of Alg. 4: derive the index write data from
// the (verified) block, check the witness, and recompute the index root.
func (p *TrustedProgram) replayIndex(in *IndexInput, blk *chain.Block, writes map[string][]byte) error {
	u, ok := p.updaters[in.Updater]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIndex, in.Updater)
	}
	newRoot, err := u.Replay(in.PrevRoot, in.Witness, blk, writes)
	if err != nil {
		return err
	}
	if newRoot != in.NewRoot {
		return fmt.Errorf("%w: replayed %s, claimed %s", ErrIndexRootMismatch, newRoot, in.NewRoot)
	}
	return nil
}

// EcallAugmented is the trusted body of Alg. 4: one enclave entry that
// verifies the block transition AND the index update, then signs
// H(hdr_i ‖ H_i^idx).
func (p *TrustedProgram) EcallAugmented(ctx *enclave.Context, prev *chain.Block, blk *chain.Block, proof *statedb.UpdateProof, in *IndexInput) ([]byte, error) {
	// Lines 3-6: previous augmented certificate (or genesis index root).
	if prev.Header.Height == 0 {
		if prev.Hash() != p.genesis {
			return nil, fmt.Errorf("%w: %s", ErrGenesisMismatch, prev.Hash())
		}
		if in.PrevRoot != GenesisIndexRoot {
			return nil, fmt.Errorf("%w: genesis index root must be empty", ErrIndexRootMismatch)
		}
	} else {
		if err := p.certVerifyT(ctx, IndexDigest(&prev.Header, in.PrevRoot), in.PrevCert); err != nil {
			return nil, err
		}
	}
	// Line 7: full block verification (re-executed per index — the cost the
	// hierarchical scheme removes).
	writes, err := p.blkVerifyT(prev, blk, proof)
	if err != nil {
		return nil, err
	}
	// Lines 8-10: index update replay.
	if err := p.replayIndex(in, blk, writes); err != nil {
		return nil, err
	}
	// Lines 11-12: sign H(hdr_i ‖ H_i^idx).
	return ctx.Sign(IndexDigest(&blk.Header, in.NewRoot))
}

// EcallHierarchicalIndex is the per-index trusted body of Alg. 5 (lines
// 3-15): instead of re-verifying the block, it verifies the block
// certificate produced moments earlier, reuses the enclave-cached write set,
// replays the index update, and signs H(hdr_i ‖ H_i^idx).
func (p *TrustedProgram) EcallHierarchicalIndex(ctx *enclave.Context, prev *chain.Block, blk *chain.Block, blkCert *Certificate, in *IndexInput) ([]byte, error) {
	// Lines 5-9: previous index certificate (or genesis index root).
	if prev.Header.Height == 0 {
		if prev.Hash() != p.genesis {
			return nil, fmt.Errorf("%w: %s", ErrGenesisMismatch, prev.Hash())
		}
		if in.PrevRoot != GenesisIndexRoot {
			return nil, fmt.Errorf("%w: genesis index root must be empty", ErrIndexRootMismatch)
		}
	} else {
		if err := p.certVerifyT(ctx, IndexDigest(&prev.Header, in.PrevRoot), in.PrevCert); err != nil {
			return nil, err
		}
	}
	// Line 10: verify blk via its block certificate instead of re-execution.
	if err := p.certVerifyT(ctx, BlockDigest(&blk.Header), blkCert); err != nil {
		return nil, err
	}
	writes, ok := p.lookupWrites(blk.Hash())
	if !ok {
		return nil, fmt.Errorf("core: write set for block %s not in enclave cache", blk.Hash())
	}
	// Lines 11-13: index update replay.
	if err := p.replayIndex(in, blk, writes); err != nil {
		return nil, err
	}
	// Lines 14-15: sign H(hdr_i ‖ H_i^idx).
	return ctx.Sign(IndexDigest(&blk.Header, in.NewRoot))
}

// writeCacheLimit bounds the enclave-resident cache (the enclave's tight
// memory budget is the whole point of the paper's §2.2 discussion).
const writeCacheLimit = 4

func (p *TrustedProgram) cacheWrites(blockHash chash.Hash, writes map[string][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.writeCache[blockHash]; ok {
		return
	}
	// FIFO eviction: the oldest certified block's set goes first. The
	// pipeline's index stage may lag block certification by a few blocks,
	// so eviction order must be deterministic — map-iteration eviction
	// could drop the set an in-flight index Ecall is about to need.
	for len(p.cacheOrder) >= writeCacheLimit {
		oldest := p.cacheOrder[0]
		p.cacheOrder = p.cacheOrder[1:]
		delete(p.writeCache, oldest)
	}
	p.writeCache[blockHash] = writes
	p.cacheOrder = append(p.cacheOrder, blockHash)
}

func (p *TrustedProgram) lookupWrites(blockHash chash.Hash) (map[string][]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.writeCache[blockHash]
	return w, ok
}
