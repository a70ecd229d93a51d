package storage

import (
	"fmt"

	"dcert/internal/chain"
	"dcert/internal/consensus"
	"dcert/internal/node"
	"dcert/internal/statedb"
	"dcert/internal/vm"
)

// ResumeConfig describes how to rebuild a full node from an engine's
// recovered chain.
type ResumeConfig struct {
	// Backend selects the state commitment structure.
	Backend statedb.BackendKind
	// Registry is the contract registry (shared across nodes).
	Registry *vm.Registry
	// Params are the consensus parameters.
	Params consensus.Params
	// Restore re-journals replayed write sets into the engine's state WAL,
	// rebuilding durability as the replay proceeds. Set it on exactly one
	// resumed node per engine, the one that journals from then on (a
	// deployment's miner); the others share the recovered image without
	// touching the journal.
	Restore bool
}

// ResumeNode rebuilds a full node at the engine's recovered tip. The fast
// path loads the snapshot+WAL state image and links recovered blocks
// without re-execution; if the image does not reproduce the chain's state
// root commitment, the node falls back to replaying transactions from
// genesis (and, with Restore, re-journals the write sets so the next cold
// start is fast again). Call after Bootstrap.
func (e *Engine) ResumeNode(cfg ResumeConfig) (*node.FullNode, error) {
	if cfg.Backend == 0 {
		cfg.Backend = statedb.BackendMPT
	}
	e.mu.Lock()
	blocks := append([]*chain.Block(nil), e.blocks...)
	e.mu.Unlock()
	if len(blocks) == 0 {
		return nil, fmt.Errorf("storage: resume before bootstrap")
	}

	rec := e.rec
	if rec.State != nil && rec.StateHeight < uint64(len(blocks)) {
		n, err := e.resumeFast(cfg, blocks)
		if err == nil {
			return n, nil
		}
		// The image is unusable after all; fall through to full replay.
	}
	return e.resumeReplay(cfg, blocks)
}

// resumeFast builds the statedb from the recovered image and links blocks
// without re-execution, validating only blocks past the image height.
func (e *Engine) resumeFast(cfg ResumeConfig, blocks []*chain.Block) (*node.FullNode, error) {
	rec := e.rec
	db, err := statedb.NewWithBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	for k, v := range rec.State {
		if err := db.Set([]byte(k), v); err != nil {
			return nil, err
		}
	}
	root, err := db.Root()
	if err != nil {
		return nil, err
	}
	m := rec.StateHeight
	if root != blocks[m].Header.StateRoot {
		return nil, fmt.Errorf("%w: state image root mismatch at height %d", ErrCorrupt, m)
	}
	n, err := node.ResumeFullNode(blocks[:m+1], db, cfg.Registry, cfg.Params)
	if err != nil {
		return nil, err
	}
	// Validate and apply any certified blocks past the image height.
	if err := e.replayBlocks(n, blocks[m+1:], cfg.Restore); err != nil {
		return nil, err
	}
	return n, nil
}

// replayBlocks advances a resuming node over recovered blocks: each one is
// validated in full (the disk is not trusted with a state transition) and
// adopted with the write set validation produced. With restore, the write set
// is re-journaled inside the adoption, so a failed append leaves the node at
// the height the journal holds.
func (e *Engine) replayBlocks(n *node.FullNode, blocks []*chain.Block, restore bool) error {
	for _, blk := range blocks {
		writes, err := n.ValidateBlock(blk)
		if err != nil {
			return fmt.Errorf("storage: resume validate height %d: %w", blk.Header.Height, err)
		}
		var rejournal func() error
		if restore {
			rejournal = func() error {
				return e.RestoreState(blk.Header.Height, blk.Header.StateRoot, writes)
			}
		}
		if err := n.AdoptBlock(blk, writes, rejournal); err != nil {
			return fmt.Errorf("storage: resume adopt height %d: %w", blk.Header.Height, err)
		}
	}
	return nil
}

// resumeReplay rebuilds the node by replaying every block's transactions
// from the empty genesis state — the slow, trust-nothing path.
func (e *Engine) resumeReplay(cfg ResumeConfig, blocks []*chain.Block) (*node.FullNode, error) {
	if cfg.Restore {
		// Re-root the journal at genesis so the replayed write sets form a
		// contiguous WAL on a complete base image.
		if err := e.resetState(blocks[0].Header.StateRoot); err != nil {
			return nil, err
		}
	}
	db, err := statedb.NewWithBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	n, err := node.NewFullNode(blocks[0], db, cfg.Registry, cfg.Params)
	if err != nil {
		return nil, err
	}
	if err := e.replayBlocks(n, blocks[1:], cfg.Restore); err != nil {
		return nil, err
	}
	return n, nil
}
