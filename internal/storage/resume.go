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
// path loads the snapshot+WAL state image and links the recovered headers
// without re-execution; if the image does not reproduce the chain's state
// root commitment, the node falls back to replaying transactions from
// genesis (and, with Restore, re-journals the write sets so the next cold
// start is fast again). Only the blocks it replays are read back from the
// chain log; the node's store reads any other body back from the engine on
// demand. Call after Bootstrap.
func (e *Engine) ResumeNode(cfg ResumeConfig) (*node.FullNode, error) {
	if cfg.Backend == 0 {
		cfg.Backend = statedb.BackendMPT
	}
	e.mu.Lock()
	headers := append([]*chain.Header(nil), e.headers...)
	e.mu.Unlock()
	if len(headers) == 0 {
		return nil, fmt.Errorf("storage: resume before bootstrap")
	}
	genesis, err := e.BlockAt(0)
	if err != nil {
		return nil, err
	}

	rec := e.rec
	if rec.State != nil && rec.StateHeight < uint64(len(headers)) {
		n, err := e.resumeFast(cfg, genesis, headers)
		if err == nil {
			return n, nil
		}
		// The image is unusable after all; fall through to full replay.
	}
	return e.resumeReplay(cfg, genesis, headers)
}

// resumeFast builds the statedb from the recovered image and links headers
// without re-execution, validating only blocks past the image height.
func (e *Engine) resumeFast(cfg ResumeConfig, genesis *chain.Block, headers []*chain.Header) (*node.FullNode, error) {
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
	if root != headers[m].StateRoot {
		return nil, fmt.Errorf("%w: state image root mismatch at height %d", ErrCorrupt, m)
	}
	n, err := node.ResumeFullNode(genesis, headers[1:m+1], e, db, cfg.Registry, cfg.Params)
	if err != nil {
		return nil, err
	}
	// Validate and apply any certified blocks past the image height.
	if err := e.replayBlocks(n, headers[m+1:], cfg.Restore); err != nil {
		return nil, err
	}
	return n, nil
}

// replayBlocks advances a resuming node over recovered blocks, read back
// from the chain log one at a time: each one is validated in full (the disk
// is not trusted with a state transition) — executed once, then adopted,
// and the adoption checks the committed root against the header. With
// restore, the write set is re-journaled inside the adoption, so a failed
// append leaves the node at the height the journal holds.
func (e *Engine) replayBlocks(n *node.FullNode, headers []*chain.Header, restore bool) error {
	for _, hdr := range headers {
		blk, err := e.BlockAt(hdr.Height)
		if err != nil {
			return fmt.Errorf("storage: resume read height %d: %w", hdr.Height, err)
		}
		res, err := n.ExecuteBlock(blk)
		if err != nil {
			return fmt.Errorf("storage: resume validate height %d: %w", blk.Header.Height, err)
		}
		var rejournal func() error
		if restore {
			rejournal = func() error {
				return e.RestoreState(blk.Header.Height, blk.Header.StateRoot, res.WriteSet)
			}
		}
		if err := n.AdoptBlock(blk, res.WriteSet, rejournal); err != nil {
			return fmt.Errorf("storage: resume adopt height %d: %w", blk.Header.Height, err)
		}
	}
	return nil
}

// resumeReplay rebuilds the node by replaying every block's transactions
// from the empty genesis state — the slow, trust-nothing path.
func (e *Engine) resumeReplay(cfg ResumeConfig, genesis *chain.Block, headers []*chain.Header) (*node.FullNode, error) {
	if cfg.Restore {
		// Re-root the journal at genesis so the replayed write sets form a
		// contiguous WAL on a complete base image.
		if err := e.resetState(genesis.Header.StateRoot); err != nil {
			return nil, err
		}
	}
	db, err := statedb.NewWithBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	n, err := node.NewFullNode(genesis, db, cfg.Registry, cfg.Params)
	if err != nil {
		return nil, err
	}
	n.Store().SetBodySource(e)
	if err := e.replayBlocks(n, headers[1:], cfg.Restore); err != nil {
		return nil, err
	}
	return n, nil
}
