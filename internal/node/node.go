// Package node implements the classic blockchain node roles of §2.1 of the
// DCert paper: the miner, which executes transactions and proposes sealed
// blocks, and the full node, which re-validates every incoming block
// (metadata, transactions, re-execution against its own state replica)
// before appending it. The DCert certificate issuer embeds a FullNode — it
// is "a full node equipped with the SGX enclave".
package node

import (
	"errors"
	"fmt"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/statedb"
	"dcert/internal/vm"
)

// Package errors.
var (
	// ErrStateMismatch is returned when a block's state root disagrees with
	// local re-execution.
	ErrStateMismatch = errors.New("node: state root mismatch")
	// ErrNotNextBlock is returned when a block does not extend the node's
	// current tip.
	ErrNotNextBlock = errors.New("node: block does not extend current tip")
)

// GenesisConfig seeds the chain.
type GenesisConfig struct {
	// Time is the genesis timestamp.
	Time uint64
	// State holds pre-funded state entries (key → value).
	State map[string][]byte
	// Consensus selects the PoW parameters recorded in every header.
	Consensus consensus.Params
	// Backend selects the state commitment structure (zero = MPT).
	Backend statedb.BackendKind
}

// BuildGenesis constructs the deterministic genesis block and its state.
func BuildGenesis(cfg GenesisConfig) (*chain.Block, *statedb.DB, error) {
	if cfg.Backend == 0 {
		cfg.Backend = statedb.BackendMPT
	}
	db, err := statedb.NewWithBackend(cfg.Backend)
	if err != nil {
		return nil, nil, fmt.Errorf("node: genesis backend: %w", err)
	}
	for k, v := range cfg.State {
		if err := db.Set([]byte(k), v); err != nil {
			return nil, nil, fmt.Errorf("node: genesis state %q: %w", k, err)
		}
	}
	root, err := db.Root()
	if err != nil {
		return nil, nil, fmt.Errorf("node: genesis root: %w", err)
	}
	blk := &chain.Block{
		Header: chain.Header{
			Height:    0,
			PrevHash:  chash.Zero,
			StateRoot: root,
			TxRoot:    chash.Zero,
			Time:      cfg.Time,
			Consensus: chain.ConsensusProof{Difficulty: cfg.Consensus.Difficulty},
		},
	}
	return blk, db, nil
}

// FullNode validates and stores the chain while maintaining a full state
// replica.
//
// FullNode is not safe for concurrent use (the embedded store is, but the
// state replica advances strictly block by block).
type FullNode struct {
	store  *chain.Store
	db     *statedb.DB
	reg    *vm.Registry
	params consensus.Params
}

// NewFullNode creates a node seeded with the genesis block and state.
func NewFullNode(genesis *chain.Block, db *statedb.DB, reg *vm.Registry, params consensus.Params) (*FullNode, error) {
	root, err := db.Root()
	if err != nil {
		return nil, err
	}
	if root != genesis.Header.StateRoot {
		return nil, fmt.Errorf("%w: genesis state root", ErrStateMismatch)
	}
	store, err := chain.NewStore(genesis)
	if err != nil {
		return nil, err
	}
	return &FullNode{store: store, db: db, reg: reg, params: params}, nil
}

// ResumeFullNode reconstructs a node from locally persisted state: the
// headers above genesis of a chain whose integrity the caller has already
// established (CRC-framed recovery plus linkage checks here), the source the
// bodies read back from, and a state replica advanced to the last header.
// Headers are linked into the store without re-executing transactions — the
// fast path for cold starts from a trusted local disk, as opposed to Replay,
// which treats its input as untrusted gossip. Only the tip's body is read.
func ResumeFullNode(genesis *chain.Block, headers []*chain.Header, bodies chain.BodySource, db *statedb.DB, reg *vm.Registry, params consensus.Params) (*FullNode, error) {
	store, err := chain.NewStore(genesis)
	if err != nil {
		return nil, err
	}
	store.SetBodySource(bodies)
	tip := genesis
	if len(headers) > 0 {
		for _, hdr := range headers[:len(headers)-1] {
			if _, err := store.AddHeader(hdr); err != nil {
				return nil, fmt.Errorf("node: resume height %d: %w", hdr.Height, err)
			}
		}
		// The tip is linked with its body: every validation and proposal
		// extends it.
		last := headers[len(headers)-1]
		lastHash := last.Hash()
		if tip, err = bodies.BlockByHash(lastHash); err != nil {
			return nil, fmt.Errorf("node: resume tip: %w", err)
		}
		if tip.Hash() != lastHash {
			return nil, fmt.Errorf("%w: resume tip %d does not match its header", chain.ErrBadBlock, last.Height)
		}
		if _, err := store.Add(tip); err != nil {
			return nil, fmt.Errorf("node: resume height %d: %w", last.Height, err)
		}
	}
	// The replica stands at the last header, so the root check waits for it.
	root, err := db.Root()
	if err != nil {
		return nil, err
	}
	if root != tip.Header.StateRoot {
		return nil, fmt.Errorf("%w: resume tip %d", ErrStateMismatch, tip.Header.Height)
	}
	return &FullNode{store: store, db: db, reg: reg, params: params}, nil
}

// Store exposes the node's block store.
func (n *FullNode) Store() *chain.Store {
	return n.store
}

// State exposes the node's state replica (current as of the best tip).
func (n *FullNode) State() *statedb.DB {
	return n.db
}

// Registry exposes the node's contract registry.
func (n *FullNode) Registry() *vm.Registry {
	return n.reg
}

// Params returns the consensus parameters.
func (n *FullNode) Params() consensus.Params {
	return n.params
}

// Tip returns the best block.
func (n *FullNode) Tip() *chain.Block {
	return n.store.Best()
}

// ExecuteBlock runs the checks of §2.1 that mutate nothing against the
// node's tip: linkage, consensus proof, tx root, and execution, which
// verifies each signature once. Its write set is not yet bound to the state
// root: AdoptBlock binds it, by committing it and comparing the roots.
func (n *FullNode) ExecuteBlock(b *chain.Block) (*statedb.ExecResult, error) {
	tip := n.store.Best()
	if b.Header.PrevHash != tip.Hash() || b.Header.Height != tip.Header.Height+1 {
		return nil, fmt.Errorf("%w: height %d prev %s", ErrNotNextBlock, b.Header.Height, b.Header.PrevHash)
	}
	if err := consensus.Verify(n.params, &b.Header); err != nil {
		return nil, err
	}
	if err := b.VerifyTxRoot(); err != nil {
		return nil, err
	}
	return n.db.ExecuteBlock(n.reg, b.Txs)
}

// ValidateBlock is the dry run for callers that need a block's checked write
// set without adopting it: ExecuteBlock, then the post-state root, derived
// by replaying the block over an update witness (the state itself must not
// move) and compared with the header's. Each signature is verified once.
func (n *FullNode) ValidateBlock(b *chain.Block) (map[string][]byte, error) {
	res, err := n.ExecuteBlock(b)
	if err != nil {
		return nil, err
	}
	proof, err := n.db.UpdateProofFor(res)
	if err != nil {
		return nil, err
	}
	prevRoot, err := n.db.Root()
	if err != nil {
		return nil, err
	}
	newRoot, _, err := statedb.ReplayBlockWithWritesPreverified(prevRoot, proof, n.reg, b.Txs)
	if err != nil {
		return nil, err
	}
	if newRoot != b.Header.StateRoot {
		return nil, fmt.Errorf("%w: computed %s, header %s", ErrStateMismatch, newRoot, b.Header.StateRoot)
	}
	return res.WriteSet, nil
}

// ProcessBlock validates b and adopts it: ExecuteBlock, then AdoptBlock,
// whose post-commit root check completes the validation.
func (n *FullNode) ProcessBlock(b *chain.Block) error {
	res, err := n.ExecuteBlock(b)
	if err != nil {
		return err
	}
	return n.AdoptBlock(b, res.WriteSet, nil)
}

// AdoptBlock advances the node by a block whose write set is already known:
// ExecuteBlock's result, computed by this node or by another replica of the
// same chain at the same tip. It takes nothing on trust about the state:
// b must extend the tip, and committing writes must yield exactly b's state
// root, which binds the write set's effect on the state to the header.
//
// Adoption is all-or-nothing. The prior value of every written key is
// captured first; a failed commit, a root mismatch or a failing apply puts
// the state back and leaves b unlinked. apply (may be nil) runs once the
// state is committed and checked, before b becomes the tip — the place for
// structures that follow the state, such as an SP's indexes.
func (n *FullNode) AdoptBlock(b *chain.Block, writes map[string][]byte, apply func() error) error {
	tip := n.store.Best()
	if b.Header.PrevHash != tip.Hash() || b.Header.Height != tip.Header.Height+1 {
		return fmt.Errorf("%w: height %d prev %s", ErrNotNextBlock, b.Header.Height, b.Header.PrevHash)
	}
	undo, err := n.db.CaptureUndo(writes)
	if err != nil {
		return err
	}
	err = n.commitChecked(b, writes, apply)
	if err != nil {
		if rerr := n.db.Revert(undo); rerr != nil {
			return fmt.Errorf("%w (and the state could not be restored: %v)", err, rerr)
		}
	}
	return err
}

// commitChecked is AdoptBlock's mutating half; the caller reverts on error.
func (n *FullNode) commitChecked(b *chain.Block, writes map[string][]byte, apply func() error) error {
	root, err := n.db.Commit(writes)
	if err != nil {
		return err
	}
	if root != b.Header.StateRoot {
		return fmt.Errorf("%w: committed %s, header %s", ErrStateMismatch, root, b.Header.StateRoot)
	}
	if apply != nil {
		if err := apply(); err != nil {
			return err
		}
	}
	_, err = n.store.Add(b)
	return err
}

// Miner is a full node that can also propose new blocks.
type Miner struct {
	// FullNode is the miner's validating core.
	*FullNode
	// clock supplies block timestamps (monotonic counter by default).
	clock uint64
}

// NewMiner wraps a full node with block-proposal capability.
func NewMiner(n *FullNode) *Miner {
	return &Miner{FullNode: n, clock: n.Tip().Header.Time}
}

// Propose executes the transactions, seals a block extending the current
// tip, commits it locally, and returns it for broadcast.
func (m *Miner) Propose(txs []*chain.Transaction) (*chain.Block, error) {
	blk, _, err := m.ProposeWithWrites(txs, nil)
	return blk, err
}

// ProposeWithWrites is Propose that also hands out the write set the miner
// has just committed, so a replica of the same chain at the same tip can
// AdoptBlock it instead of executing the block again. Every signature is
// checked exactly once, before anything executes or commits.
//
// journal (may be nil) makes the proposal durable: it runs after the commit
// and the seal, before the block becomes the tip. Proposal is all-or-nothing,
// like AdoptBlock: a failing journal puts the state back and leaves the tip
// and the store where they were.
func (m *Miner) ProposeWithWrites(txs []*chain.Transaction, journal func(*chain.Block, map[string][]byte) error) (*chain.Block, map[string][]byte, error) {
	for i, tx := range txs {
		if err := tx.Verify(); err != nil {
			return nil, nil, fmt.Errorf("node: propose tx %d: %w", i, err)
		}
	}
	res, err := m.db.ExecuteBlockPreverified(m.reg, txs)
	if err != nil {
		return nil, nil, err
	}
	txRoot, err := chain.ComputeTxRoot(txs)
	if err != nil {
		return nil, nil, err
	}
	undo, err := m.db.CaptureUndo(res.WriteSet)
	if err != nil {
		return nil, nil, err
	}
	blk, err := m.seal(txs, txRoot, res.WriteSet, journal)
	if err != nil {
		if rerr := m.db.Revert(undo); rerr != nil {
			return nil, nil, fmt.Errorf("%w (and the state could not be restored: %v)", err, rerr)
		}
		return nil, nil, err
	}
	return blk, res.WriteSet, nil
}

// seal is ProposeWithWrites' mutating half; the caller reverts on error.
func (m *Miner) seal(txs []*chain.Transaction, txRoot chash.Hash, writes map[string][]byte, journal func(*chain.Block, map[string][]byte) error) (*chain.Block, error) {
	newRoot, err := m.db.Commit(writes)
	if err != nil {
		return nil, err
	}
	tip := m.store.Best()
	blk := &chain.Block{
		Header: chain.Header{
			Height:    tip.Header.Height + 1,
			PrevHash:  tip.Hash(),
			StateRoot: newRoot,
			TxRoot:    txRoot,
			Time:      m.clock + 1,
		},
		Txs: txs,
	}
	if err := consensus.Seal(m.params, &blk.Header); err != nil {
		return nil, err
	}
	if journal != nil {
		if err := journal(blk, writes); err != nil {
			return nil, err
		}
	}
	if _, err := m.store.Add(blk); err != nil {
		return nil, err
	}
	m.clock++
	return blk, nil
}
