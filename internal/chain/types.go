// Package chain defines the block structure of the underlying blockchain
// (Fig. 1 of the DCert paper): headers with previous-hash, consensus proof,
// state root and transaction root; signed transactions; and blocks. It also
// provides a chain store with the longest-chain selection rule.
//
// DCert is designed to be compatible with existing blockchains, so nothing
// in this package knows about certificates; the core package layers
// certification on top without modifying these structures.
package chain

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dcert/internal/chash"
	"dcert/internal/mht"
)

// Package errors.
var (
	// ErrBadTx is returned when a transaction fails validation.
	ErrBadTx = errors.New("chain: invalid transaction")
	// ErrBadBlock is returned when a block fails structural validation.
	ErrBadBlock = errors.New("chain: invalid block")
	// ErrUnknownParent is returned when a block's parent is not in the store.
	ErrUnknownParent = errors.New("chain: unknown parent block")
	// ErrNotFound is returned when a block is not in the store.
	ErrNotFound = errors.New("chain: block not found")
)

// AddressSize is the byte length of account addresses.
const AddressSize = 20

// Address identifies an account: the truncated digest of its public key.
type Address [AddressSize]byte

// AddressOf derives the address of a public key.
func AddressOf(pk *chash.PublicKey) Address {
	fp := pk.Fingerprint()
	var a Address
	copy(a[:], fp[:AddressSize])
	return a
}

// Hex returns the lowercase hex form of the address.
func (a Address) Hex() string {
	return fmt.Sprintf("%x", a[:])
}

// ConsensusProof is π_cons: the data a consensus protocol attaches to a
// header. For the simulated proof-of-work protocol it is a nonce that makes
// the header's work hash meet the difficulty target.
type ConsensusProof struct {
	// Nonce is the proof-of-work nonce.
	Nonce uint64
	// Difficulty is the number of leading zero bits the work hash must have.
	Difficulty uint32
}

// Header is the block header of Fig. 1.
type Header struct {
	// Height is the block number; the genesis block has height 0.
	Height uint64
	// PrevHash is H_prev_blk, the digest of the previous header.
	PrevHash chash.Hash
	// StateRoot is H_state, the state commitment after executing the block.
	StateRoot chash.Hash
	// TxRoot is H_tx, the Merkle root over the block's transactions.
	TxRoot chash.Hash
	// Time is the block timestamp in Unix seconds.
	Time uint64
	// Consensus is π_cons.
	Consensus ConsensusProof
}

// HeaderSize is the length of every header's canonical encoding.
const HeaderSize = 8 + 3*chash.Size + 8 + 8 + 4

// preimage builds the canonical header encoding.
func (h *Header) preimage() []byte {
	e := chash.NewEncoder(HeaderSize)
	h.Encode(e)
	return e.Bytes()
}

// Encode appends the header's canonical encoding (HeaderSize bytes) to e.
func (h *Header) Encode(e *chash.Encoder) {
	e.PutUint64(h.Height)
	e.PutHash(h.PrevHash)
	e.PutHash(h.StateRoot)
	e.PutHash(h.TxRoot)
	e.PutUint64(h.Time)
	e.PutUint64(h.Consensus.Nonce)
	e.PutUint32(h.Consensus.Difficulty)
}

// Hash returns the header digest H(hdr).
func (h *Header) Hash() chash.Hash {
	return chash.Sum(chash.DomainHeader, h.preimage())
}

// Marshal serializes the header.
func (h *Header) Marshal() []byte {
	return h.preimage()
}

// UnmarshalHeader parses a header produced by Marshal.
func UnmarshalHeader(raw []byte) (*Header, error) {
	d := chash.NewDecoder(raw)
	var h Header
	var err error
	if h.Height, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if h.PrevHash, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if h.StateRoot, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if h.TxRoot, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if h.Time, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if h.Consensus.Nonce, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if h.Consensus.Difficulty, err = d.Uint32(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal header: %w", err)
	}
	return &h, nil
}

// EncodedSize returns the serialized header size in bytes.
func (h *Header) EncodedSize() int {
	return HeaderSize
}

// Transaction is a signed smart-contract invocation.
type Transaction struct {
	// From is the sender address (must match the public key).
	From Address
	// Nonce distinguishes repeated invocations by one sender.
	Nonce uint64
	// Contract names the target contract instance.
	Contract string
	// Method is the contract entry point.
	Method string
	// Args are the call arguments.
	Args [][]byte
	// PubKey is the sender's serialized public key.
	PubKey []byte
	// Signature signs the transaction digest with the sender's key.
	Signature []byte
}

// sigPreimage encodes the fields covered by the signature.
func (tx *Transaction) sigPreimage() []byte {
	e := chash.NewEncoder(128)
	e.PutBytes(tx.From[:])
	e.PutUint64(tx.Nonce)
	e.PutString(tx.Contract)
	e.PutString(tx.Method)
	e.PutUint32(uint32(len(tx.Args)))
	for _, a := range tx.Args {
		e.PutBytes(a)
	}
	return e.Bytes()
}

// SigHash returns the digest the sender signs.
func (tx *Transaction) SigHash() chash.Hash {
	return chash.Sum(chash.DomainTx, tx.sigPreimage())
}

// Hash returns the full transaction digest (including signature), used as
// the Merkle leaf for H_tx.
func (tx *Transaction) Hash() chash.Hash {
	return chash.Sum(chash.DomainTx, tx.Marshal())
}

// Sign populates From, PubKey, and Signature from the sender's key.
func (tx *Transaction) Sign(sk *chash.PrivateKey) error {
	pk, err := sk.Public()
	if err != nil {
		return fmt.Errorf("chain: sign tx: %w", err)
	}
	tx.From = AddressOf(pk)
	tx.PubKey = pk.Marshal()
	sig, err := sk.Sign(tx.SigHash())
	if err != nil {
		return fmt.Errorf("chain: sign tx: %w", err)
	}
	tx.Signature = sig
	return nil
}

// sigVerifications counts Transaction.Verify calls process-wide.
var sigVerifications atomic.Uint64

// SigVerifications reports how many times Transaction.Verify has run in this
// process. Tests and benchmarks read it before and after a step to count the
// signature passes the step costs (a count repeats exactly; a timing does
// not).
func SigVerifications() uint64 {
	return sigVerifications.Load()
}

// Verify checks the sender address binding and the signature. This is the
// verify(tx) step of Alg. 2 line 19.
func (tx *Transaction) Verify() error {
	sigVerifications.Add(1)
	pk, err := chash.ParsePublicKey(tx.PubKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadTx, err)
	}
	if AddressOf(pk) != tx.From {
		return fmt.Errorf("%w: sender address does not match public key", ErrBadTx)
	}
	if err := pk.Verify(tx.SigHash(), tx.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTx, err)
	}
	return nil
}

// Marshal serializes the transaction.
func (tx *Transaction) Marshal() []byte {
	e := chash.NewEncoder(256)
	e.PutBytes(tx.From[:])
	e.PutUint64(tx.Nonce)
	e.PutString(tx.Contract)
	e.PutString(tx.Method)
	e.PutUint32(uint32(len(tx.Args)))
	for _, a := range tx.Args {
		e.PutBytes(a)
	}
	e.PutBytes(tx.PubKey)
	e.PutBytes(tx.Signature)
	return e.Bytes()
}

// UnmarshalTransaction parses a transaction produced by Marshal.
func UnmarshalTransaction(raw []byte) (*Transaction, error) {
	d := chash.NewDecoder(raw)
	var tx Transaction
	from, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	if len(from) != AddressSize {
		return nil, fmt.Errorf("chain: unmarshal tx: bad address length %d", len(from))
	}
	copy(tx.From[:], from)
	if tx.Nonce, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	if tx.Contract, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	if tx.Method, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	nArgs, err := d.Count(1<<16, 4)
	if err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx args: %w", err)
	}
	tx.Args = make([][]byte, 0, nArgs)
	for i := range nArgs {
		a, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("chain: unmarshal tx arg %d: %w", i, err)
		}
		tx.Args = append(tx.Args, a)
	}
	if tx.PubKey, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	if tx.Signature, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal tx: %w", err)
	}
	return &tx, nil
}

// Block is a header plus its transactions.
type Block struct {
	// Header is the block header.
	Header Header
	// Txs are the block's transactions in execution order.
	Txs []*Transaction
}

// Hash returns the block's header digest.
func (b *Block) Hash() chash.Hash {
	return b.Header.Hash()
}

// ComputeTxRoot builds the Merkle root over the block's transactions
// (chash.Zero for an empty block).
func ComputeTxRoot(txs []*Transaction) (chash.Hash, error) {
	if len(txs) == 0 {
		return chash.Zero, nil
	}
	digests := make([]chash.Hash, len(txs))
	for i, tx := range txs {
		digests[i] = tx.Hash()
	}
	tree, err := mht.BuildFromDigests(digests)
	if err != nil {
		return chash.Zero, fmt.Errorf("chain: tx root: %w", err)
	}
	return tree.Root(), nil
}

// VerifyTxRoot checks H_tx against the block's transactions
// (Alg. 2 line 16).
func (b *Block) VerifyTxRoot() error {
	root, err := ComputeTxRoot(b.Txs)
	if err != nil {
		return err
	}
	if root != b.Header.TxRoot {
		return fmt.Errorf("%w: tx root mismatch", ErrBadBlock)
	}
	return nil
}

// Marshal serializes the block.
func (b *Block) Marshal() []byte {
	hdr := b.Header.Marshal()
	e := chash.NewEncoder(len(hdr) + 256*len(b.Txs))
	e.PutBytes(hdr)
	e.PutUint32(uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		e.PutBytes(tx.Marshal())
	}
	return e.Bytes()
}

// UnmarshalBlock parses a block produced by Marshal.
func UnmarshalBlock(raw []byte) (*Block, error) {
	d := chash.NewDecoder(raw)
	hdrRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("chain: unmarshal block: %w", err)
	}
	hdr, err := UnmarshalHeader(hdrRaw)
	if err != nil {
		return nil, err
	}
	n, err := d.Count(1<<20, 4)
	if err != nil {
		return nil, fmt.Errorf("chain: unmarshal block txs: %w", err)
	}
	b := &Block{Header: *hdr, Txs: make([]*Transaction, 0, n)}
	for i := range n {
		txRaw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("chain: unmarshal block tx %d: %w", i, err)
		}
		tx, err := UnmarshalTransaction(txRaw)
		if err != nil {
			return nil, err
		}
		b.Txs = append(b.Txs, tx)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("chain: unmarshal block: %w", err)
	}
	return b, nil
}
