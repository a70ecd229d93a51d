// Package statedb maintains the blockchain's global state as a Merkle
// Patricia Trie and implements both halves of DCert's certificate
// construction data flow:
//
//   - Outside the enclave (Alg. 1 lines 2-3): execute a block's transactions
//     against the committed state, producing the read set {r}, the write set
//     {w}, and the update proof π (an MPT witness covering both).
//   - Inside the enclave (Alg. 2 lines 17-23): replay the transactions
//     statelessly against the witness, cross-check the declared read set,
//     and recompute the post-state root.
package statedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/mpt"
	"dcert/internal/smt"
	"dcert/internal/vm"
)

// Package errors.
var (
	// ErrReadSetMismatch is returned when the declared read set disagrees
	// with the authenticated witness.
	ErrReadSetMismatch = errors.New("statedb: read set does not match witness")
	// ErrStateRootMismatch is returned when a replayed block's post-state
	// root differs from the claimed one.
	ErrStateRootMismatch = errors.New("statedb: state root mismatch")
	// ErrTxInvalid is returned when a block contains an invalid transaction.
	ErrTxInvalid = errors.New("statedb: invalid transaction in block")
)

// DB is the full-node state database. The commitment structure is
// selectable: the default Merkle Patricia Trie, or the Fig. 4 sparse Merkle
// tree (see backend_smt.go).
//
// DB is not safe for concurrent use.
type DB struct {
	kind BackendKind
	trie *mpt.Trie // BackendMPT
	smt  *smtState // BackendSMT
}

// instances counts the DBs New and NewWithBackend construct, process-wide.
var instances atomic.Uint64

// Instances reports how many state databases have been constructed in this
// process. Tests and benchmarks read it before and after a step to count the
// state tries the step builds (a count repeats exactly; a heap size does
// not).
func Instances() uint64 {
	return instances.Load()
}

// New returns an empty MPT-backed state database.
func New() *DB {
	instances.Add(1)
	return &DB{kind: BackendMPT, trie: mpt.New()}
}

// NewWithBackend returns an empty state database over the given commitment
// structure.
func NewWithBackend(kind BackendKind) (*DB, error) {
	switch kind {
	case BackendMPT:
		return New(), nil
	case BackendSMT:
		s, err := newSMTState()
		if err != nil {
			return nil, err
		}
		instances.Add(1)
		return &DB{kind: BackendSMT, smt: s}, nil
	default:
		return nil, fmt.Errorf("statedb: unknown backend %d", byte(kind))
	}
}

// Backend reports the commitment structure in use.
func (db *DB) Backend() BackendKind {
	return db.kind
}

// Root returns the state commitment H_state.
func (db *DB) Root() (chash.Hash, error) {
	if db.kind == BackendSMT {
		return db.smt.tree.Root(), nil
	}
	return db.trie.Hash()
}

// Get reads a raw state value.
func (db *DB) Get(key []byte) ([]byte, error) {
	if db.kind == BackendSMT {
		return db.smt.get(key)
	}
	return db.trie.Get(key)
}

// Set writes a raw state value directly (genesis initialization only; block
// execution goes through ExecuteBlock/Commit).
func (db *DB) Set(key, value []byte) error {
	if db.kind == BackendSMT {
		return db.smt.set(key, value)
	}
	return db.trie.Put(key, value)
}

// ExecResult captures a block execution: the read and write sets over the
// pre-state, plus per-transaction revert outcomes.
type ExecResult struct {
	// ReadSet maps each key read from the pre-state to the value observed
	// ({r} in the paper; nil value = proven absent).
	ReadSet map[string][]byte
	// WriteSet maps each written key to its final value ({w}).
	WriteSet map[string][]byte
	// Reverted lists the indices of transactions whose writes were dropped.
	Reverted []int
}

// overlay implements vm.State over a base read function with read/write
// tracking and nested (per-transaction) write buffers.
type overlay struct {
	base   func(key []byte) ([]byte, error)
	reads  map[string][]byte
	writes map[string][]byte
	txBuf  map[string][]byte // current transaction's uncommitted writes
}

var _ vm.State = (*overlay)(nil)

func newOverlay(base func(key []byte) ([]byte, error)) *overlay {
	return &overlay{
		base:   base,
		reads:  make(map[string][]byte),
		writes: make(map[string][]byte),
	}
}

func (o *overlay) beginTx() {
	o.txBuf = make(map[string][]byte)
}

func (o *overlay) commitTx() {
	for k, v := range o.txBuf {
		o.writes[k] = v
	}
	o.txBuf = nil
}

func (o *overlay) revertTx() {
	o.txBuf = nil
}

// Read implements vm.State: uncommitted writes, then committed writes, then
// the recorded read set, then the base state (recording the observation).
func (o *overlay) Read(key []byte) ([]byte, error) {
	k := string(key)
	if o.txBuf != nil {
		if v, ok := o.txBuf[k]; ok {
			return v, nil
		}
	}
	if v, ok := o.writes[k]; ok {
		return v, nil
	}
	if v, ok := o.reads[k]; ok {
		return v, nil
	}
	v, err := o.base(key)
	if err != nil {
		return nil, err
	}
	o.reads[k] = v
	return v, nil
}

// Write implements vm.State.
func (o *overlay) Write(key, value []byte) error {
	if len(value) == 0 {
		return mpt.ErrEmptyValue
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	if o.txBuf == nil {
		o.writes[string(key)] = cp
		return nil
	}
	o.txBuf[string(key)] = cp
	return nil
}

// nonceKey is the state key holding an account's next expected nonce.
func nonceKey(addr chain.Address) []byte {
	return []byte("sys/nonce/" + addr.Hex())
}

// checkAndBumpNonce enforces per-account replay protection: the transaction
// nonce must equal the account's stored counter, which is then advanced.
// The bump is written outside the per-transaction buffer so it survives
// contract-level reverts (as on Ethereum: a reverted tx still consumes its
// nonce).
func checkAndBumpNonce(o *overlay, tx *chain.Transaction) error {
	key := nonceKey(tx.From)
	raw, err := o.Read(key)
	if err != nil {
		return err
	}
	var next uint64
	if raw != nil {
		if len(raw) != 8 {
			return fmt.Errorf("%w: corrupt nonce entry", ErrTxInvalid)
		}
		next = binary.BigEndian.Uint64(raw)
	}
	if tx.Nonce != next {
		return fmt.Errorf("%w: nonce %d, account at %d", ErrTxInvalid, tx.Nonce, next)
	}
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, next+1)
	o.writes[string(key)] = buf
	return nil
}

// runTxs executes the block's transactions over the overlay with
// per-transaction revert semantics. Transaction signatures and account
// nonces are verified first (Alg. 2 line 19 plus replay protection);
// contract-level errors revert the single transaction, while infrastructure
// errors (missing witness nodes) abort.
func runTxs(reg *vm.Registry, o *overlay, txs []*chain.Transaction) ([]int, error) {
	return runTxsOpts(reg, o, txs, false)
}

// runTxsOpts is runTxs with the signature check optionally hoisted out: the
// pipeline verifies signatures in a parallel stage (or, in the enclave, on
// multiple TCS) before execution, and must not pay for them twice.
func runTxsOpts(reg *vm.Registry, o *overlay, txs []*chain.Transaction, preverified bool) ([]int, error) {
	var reverted []int
	for i, tx := range txs {
		if !preverified {
			if err := tx.Verify(); err != nil {
				return nil, fmt.Errorf("%w: tx %d: %v", ErrTxInvalid, i, err)
			}
		}
		if err := checkAndBumpNonce(o, tx); err != nil {
			if errors.Is(err, ErrTxInvalid) {
				return nil, fmt.Errorf("tx %d: %w", i, err)
			}
			return nil, err
		}
		o.beginTx()
		err := reg.Call(vm.NewMeteredState(o), tx)
		switch {
		case err == nil:
			o.commitTx()
		case errors.Is(err, mpt.ErrMissingNode), errors.Is(err, ErrUnprovenRead):
			// Witness insufficiency is an integrity failure, not a revert.
			return nil, err
		default:
			o.revertTx()
			reverted = append(reverted, i)
		}
	}
	return reverted, nil
}

// ExecuteBlock runs the transactions against the committed state without
// mutating it, returning the read/write sets (comp_data_set, Alg. 1 line 2).
func (db *DB) ExecuteBlock(reg *vm.Registry, txs []*chain.Transaction) (*ExecResult, error) {
	return db.executeBlock(reg, txs, false)
}

// ExecuteBlockPreverified is ExecuteBlock for transactions whose signatures
// have already been checked (the pipeline's parallel verify stage). Nonce
// replay protection still runs — it is state-dependent and belongs here.
func (db *DB) ExecuteBlockPreverified(reg *vm.Registry, txs []*chain.Transaction) (*ExecResult, error) {
	return db.executeBlock(reg, txs, true)
}

func (db *DB) executeBlock(reg *vm.Registry, txs []*chain.Transaction, preverified bool) (*ExecResult, error) {
	o := newOverlay(db.Get)
	reverted, err := runTxsOpts(reg, o, txs, preverified)
	if err != nil {
		return nil, err
	}
	return &ExecResult{ReadSet: o.reads, WriteSet: o.writes, Reverted: reverted}, nil
}

// Commit applies a write set to the state and returns the new root.
func (db *DB) Commit(writes map[string][]byte) (chash.Hash, error) {
	for k, v := range writes {
		if err := db.Set([]byte(k), v); err != nil {
			return chash.Zero, fmt.Errorf("statedb: commit %q: %w", k, err)
		}
	}
	return db.Root()
}

// Undo holds what one write set is about to overwrite: the prior value of
// every key it touches (nil = absent), captured before the commit.
type Undo struct {
	entries []undoEntry
}

type undoEntry struct {
	key   string
	prior []byte
}

// CaptureUndo records the current value of every key in writes, so that a
// commit of the write set — speculative, or of a write set still to be
// checked against a header — can be taken back with Revert.
func (db *DB) CaptureUndo(writes map[string][]byte) (*Undo, error) {
	u := &Undo{entries: make([]undoEntry, 0, len(writes))}
	for k := range writes {
		prior, err := db.Get([]byte(k))
		if err != nil {
			return nil, fmt.Errorf("statedb: undo capture %q: %w", k, err)
		}
		u.entries = append(u.entries, undoEntry{key: k, prior: prior})
	}
	return u, nil
}

// Revert restores every captured key to its prior value, deleting the keys
// that did not exist. It also repairs a Commit that failed part-way: keys
// the commit never reached are rewritten with the value they still hold.
func (db *DB) Revert(u *Undo) error {
	for _, e := range u.entries {
		var err error
		if e.prior != nil {
			err = db.Set([]byte(e.key), e.prior)
		} else {
			err = db.Delete([]byte(e.key))
		}
		if err != nil {
			return fmt.Errorf("statedb: revert %q: %w", e.key, err)
		}
	}
	return nil
}

// Delete removes a key from the state. It exists for speculative-execution
// rollback: a pipelined issuer commits write sets ahead of certification and
// must be able to restore keys that did not exist before (deleting an absent
// key is a no-op).
func (db *DB) Delete(key []byte) error {
	if db.kind == BackendSMT {
		db.smt.del(key)
		return nil
	}
	return db.trie.Delete(key)
}

// UpdateProof is π_i = ⟨{r}_i, π_r, π_w⟩ from Alg. 1: the declared read set
// plus a commitment witness covering the read and write keys against the
// pre-state root. The witness shape depends on the state backend: an MPT
// node witness, or an SMT multiproof with the explicit prior-value set.
type UpdateProof struct {
	// Kind names the backend this proof is for.
	Kind BackendKind
	// ReadSet is the declared {r} (key → observed pre-state value).
	ReadSet map[string][]byte
	// Witness authenticates the read and write paths (BackendMPT).
	Witness *mpt.Witness
	// SMT is the combined multiproof over all touched keys (BackendSMT).
	SMT *smt.Multiproof
	// Prior holds the pre-state value of every touched key (BackendSMT).
	Prior map[string][]byte
}

// EncodedSize returns the serialized proof size in bytes.
func (p *UpdateProof) EncodedSize() int {
	size := 0
	switch p.Kind {
	case BackendSMT:
		size = p.SMT.EncodedSize()
		for k, v := range p.Prior {
			size += 8 + len(k) + len(v)
		}
	default:
		size = p.Witness.EncodedSize()
	}
	for k, v := range p.ReadSet {
		size += 8 + len(k) + len(v)
	}
	return size
}

// UpdateProofFor builds the update proof for an executed block
// (get_update_proof, Alg. 1 line 3).
func (db *DB) UpdateProofFor(res *ExecResult) (*UpdateProof, error) {
	if db.kind == BackendSMT {
		return db.smt.updateProof(res)
	}
	keys := make([][]byte, 0, len(res.ReadSet)+len(res.WriteSet))
	for k := range res.ReadSet {
		keys = append(keys, []byte(k))
	}
	for k := range res.WriteSet {
		keys = append(keys, []byte(k))
	}
	w, err := db.trie.WitnessForKeys(keys)
	if err != nil {
		return nil, fmt.Errorf("statedb: update proof: %w", err)
	}
	reads := make(map[string][]byte, len(res.ReadSet))
	for k, v := range res.ReadSet {
		reads[k] = v
	}
	return &UpdateProof{Kind: BackendMPT, ReadSet: reads, Witness: w}, nil
}

// ReplayBlock is the trusted half (blk_verify_t lines 17-23): it rebuilds a
// partial trie over the witness, cross-checks the declared read set against
// it, re-executes the transactions, applies the writes, and returns the
// recomputed post-state root. Every state access is authenticated against
// prevRoot; missing or tampered witness data fails the replay.
func ReplayBlock(prevRoot chash.Hash, proof *UpdateProof, reg *vm.Registry, txs []*chain.Transaction) (chash.Hash, error) {
	root, _, err := ReplayBlockWithWrites(prevRoot, proof, reg, txs)
	return root, err
}

// ReplayBlockWithWrites is ReplayBlock, additionally returning the verified
// write set — the DCert trusted program feeds it to index certification
// (get_index_write_data without re-execution).
func ReplayBlockWithWrites(prevRoot chash.Hash, proof *UpdateProof, reg *vm.Registry, txs []*chain.Transaction) (chash.Hash, map[string][]byte, error) {
	return replayBlock(prevRoot, proof, reg, txs, false)
}

// ReplayBlockWithWritesPreverified is ReplayBlockWithWrites minus the per-
// transaction signature check, for trusted programs that have already
// verified all signatures on parallel enclave threads (multiple TCS). The
// caller vouches for the signatures; everything state-dependent (read-set
// cross-check, nonces, re-execution, root recomputation) still runs.
func ReplayBlockWithWritesPreverified(prevRoot chash.Hash, proof *UpdateProof, reg *vm.Registry, txs []*chain.Transaction) (chash.Hash, map[string][]byte, error) {
	return replayBlock(prevRoot, proof, reg, txs, true)
}

func replayBlock(prevRoot chash.Hash, proof *UpdateProof, reg *vm.Registry, txs []*chain.Transaction, preverified bool) (chash.Hash, map[string][]byte, error) {
	if proof.Kind == BackendSMT {
		return replaySMT(prevRoot, proof, reg, txs, preverified)
	}
	pt := mpt.NewPartial(prevRoot, proof.Witness)

	// verify_mht(H_{i-1}^s, π_r, {r}): every declared read must match the
	// authenticated pre-state.
	for k, declared := range proof.ReadSet {
		got, err := pt.Get([]byte(k))
		if err != nil {
			return chash.Zero, nil, fmt.Errorf("%w: read %q: %v", ErrReadSetMismatch, k, err)
		}
		if !bytes.Equal(got, declared) {
			return chash.Zero, nil, fmt.Errorf("%w: read %q", ErrReadSetMismatch, k)
		}
	}

	// Re-execute transactions; reads resolve through the partial trie, so
	// any read outside the witness aborts the replay.
	o := newOverlay(pt.Get)
	if _, err := runTxsOpts(reg, o, txs, preverified); err != nil {
		return chash.Zero, nil, err
	}

	// update(π_w, {w}): apply the recomputed write set and derive the root.
	for k, v := range o.writes {
		if err := pt.Put([]byte(k), v); err != nil {
			return chash.Zero, nil, fmt.Errorf("statedb: replay write %q: %w", k, err)
		}
	}
	root, err := pt.Hash()
	if err != nil {
		return chash.Zero, nil, fmt.Errorf("statedb: replay root: %w", err)
	}
	return root, o.writes, nil
}

// Prove builds a single-key Merkle proof (path witness) against the current
// state root, for direct verifiable state reads by light clients (§1).
// Only the MPT backend serves path proofs.
func (db *DB) Prove(key []byte) (*mpt.Witness, error) {
	if db.kind != BackendMPT {
		return nil, fmt.Errorf("statedb: state proofs require the MPT backend, have %s", db.kind)
	}
	return db.trie.Prove(key)
}

// ProveKeys builds one merged multiproof covering all the given keys: a
// single witness holding the union of the keys' path nodes. Shared upper
// path nodes appear once (the witness is content-addressed), so a K-key
// multiproof is strictly smaller than K single-key proofs and verifies every
// key against the same root. Only the MPT backend serves path proofs.
func (db *DB) ProveKeys(keys [][]byte) (*mpt.Witness, error) {
	if db.kind != BackendMPT {
		return nil, fmt.Errorf("statedb: state proofs require the MPT backend, have %s", db.kind)
	}
	return db.trie.WitnessForKeys(keys)
}
