package chain

import (
	"errors"
	"fmt"
	"sync"

	"dcert/internal/chash"
)

// BodyWindow is how many heights below the best tip a store with a body
// source keeps block bodies in memory; older bodies are read back from the
// source on demand. It covers every reader on the block path:
//   - the tip, which every validation, adoption and proposal extends;
//   - the parent, which a pipeline's index fan-out reads after the commit;
//   - the pipeline depth: a certification pipeline trails the miner by its
//     Depth (2 × Workers by default) plus a partial segment, well under 64.
//
// Reading an older body back is always correct, only slower; the window
// keeps disk reads off the mining path.
const BodyWindow = 64

// BodySource reads back blocks whose bodies a Store no longer holds in
// memory. A durable node's storage engine is one: its chain log holds every
// block the node has linked.
type BodySource interface {
	// BlockByHash returns the full block with the given header hash.
	BlockByHash(h chash.Hash) (*Block, error)
}

// Store keeps blocks by hash and tracks the best tip under the longest-chain
// selection rule (ties broken by first arrival, as in Bitcoin).
//
// A store holds a header for every block it has linked. Without a body
// source it holds every body as well; with one (SetBodySource), it holds the
// bodies of the last BodyWindow heights only and reads older ones back from
// the source, so a node's memory no longer grows with the transactions it
// has ever seen. Get, AtHeight and Best return full blocks either way; the
// header accessors never read from the source.
//
// Store is safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	// headers holds every known block's header, as copies: no entry points
	// into a Block, so evicting a body frees it.
	headers map[chash.Hash]*Header
	bodies  map[chash.Hash]*Block   // blocks whose bodies are in memory
	byNum   map[uint64][]chash.Hash // all known blocks per height (forks)
	canon   []chash.Hash            // canonical chain: height → hash
	source  BodySource
	genesis chash.Hash
	best    chash.Hash
	bestNum uint64
}

// NewStore creates a store seeded with the genesis block.
func NewStore(genesis *Block) (*Store, error) {
	if genesis == nil || genesis.Header.Height != 0 {
		return nil, fmt.Errorf("%w: genesis must have height 0", ErrBadBlock)
	}
	gh := genesis.Hash()
	hdr := genesis.Header
	return &Store{
		headers: map[chash.Hash]*Header{gh: &hdr},
		bodies:  map[chash.Hash]*Block{gh: genesis},
		byNum:   map[uint64][]chash.Hash{0: {gh}},
		canon:   []chash.Hash{gh},
		genesis: gh,
		best:    gh,
	}, nil
}

// SetBodySource attaches the source that older bodies are read back from,
// and drops the bodies already outside the window. Call it once, when the
// node is built, before the store is shared.
func (s *Store) SetBodySource(src BodySource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.source = src
	if s.bestNum > BodyWindow {
		s.evictLocked(1, s.bestNum-BodyWindow)
	}
}

// Genesis returns the genesis block hash.
func (s *Store) Genesis() chash.Hash {
	return s.genesis
}

// Add inserts a block whose parent must already be known. It returns whether
// the block became the new best tip (longest chain rule).
func (s *Store) Add(b *Block) (bool, error) {
	return s.link(&b.Header, b)
}

// AddHeader links a block by its header alone; its body is read back from
// the body source when asked for. Resuming a node from its own disk uses it
// for the history below the tip, so that no body is loaded that nobody
// reads. The tip itself must be linked with Add: Best returns the body held
// in memory.
func (s *Store) AddHeader(hdr *Header) (bool, error) {
	s.mu.RLock()
	src := s.source
	s.mu.RUnlock()
	if src == nil {
		return false, errors.New("chain: header-only block in a store without a body source")
	}
	return s.link(hdr, nil)
}

// link adds a header, with its body when b is non-nil.
func (s *Store) link(hdr *Header, b *Block) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	h := hdr.Hash()
	if _, ok := s.headers[h]; ok {
		return false, nil
	}
	parent, ok := s.headers[hdr.PrevHash]
	if !ok {
		return false, fmt.Errorf("%w: %s at height %d", ErrUnknownParent, hdr.PrevHash, hdr.Height)
	}
	if hdr.Height != parent.Height+1 {
		return false, fmt.Errorf("%w: height %d after parent height %d", ErrBadBlock, hdr.Height, parent.Height)
	}
	cp := *hdr
	s.headers[h] = &cp
	if b != nil {
		s.bodies[h] = b
	}
	s.byNum[hdr.Height] = append(s.byNum[hdr.Height], h)
	if hdr.Height <= s.bestNum {
		return false, nil
	}
	s.bestNum = hdr.Height
	s.best = h
	s.canonizeLocked(h)
	if s.source != nil && s.bestNum > BodyWindow {
		// The tip advanced by one height: one more height leaves the window.
		s.evictLocked(s.bestNum-BodyWindow, s.bestNum-BodyWindow)
	}
	return true, nil
}

// canonizeLocked makes the new best tip h, one height above the old one,
// the end of the canonical index: it walks back from h, rewriting the index
// until it meets the branch it already holds (at once, unless the best tip
// switched to a fork).
func (s *Store) canonizeLocked(h chash.Hash) {
	s.canon = append(s.canon, h)
	for height := s.bestNum; height > 0; height-- {
		hdr, ok := s.headers[s.canon[height]]
		if !ok {
			return // the pruning horizon
		}
		prev := hdr.PrevHash
		if s.canon[height-1] == prev {
			return
		}
		s.canon[height-1] = prev
	}
}

// evictLocked drops the bodies at heights lo..hi (genesis stays).
func (s *Store) evictLocked(lo, hi uint64) {
	for height := max(lo, 1); height <= hi; height++ {
		for _, h := range s.byNum[height] {
			delete(s.bodies, h)
		}
	}
}

// Get returns the block with the given hash, reading its body back from the
// body source when it is no longer in memory.
func (s *Store) Get(h chash.Hash) (*Block, error) {
	s.mu.RLock()
	b, inMem := s.bodies[h]
	hdr, known := s.headers[h]
	src := s.source
	s.mu.RUnlock()
	if inMem {
		return b, nil
	}
	if !known || src == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h)
	}
	b, err := src.BlockByHash(h)
	if err != nil {
		return nil, fmt.Errorf("chain: read back block %d: %w", hdr.Height, err)
	}
	if b.Hash() != h {
		return nil, fmt.Errorf("%w: body source returned block %s for %s", ErrBadBlock, b.Hash(), h)
	}
	return b, nil
}

// Best returns the current best tip block. The tip is always linked with its
// body (Add), so it is always in memory.
func (s *Store) Best() *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bodies[s.best]
}

// BestHeight returns the height of the best tip.
func (s *Store) BestHeight() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bestNum
}

// HashAt returns the hash of the canonical-chain block at the given height.
func (s *Store) HashAt(height uint64) (chash.Hash, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, _, err := s.canonLocked(height)
	return h, err
}

// HeaderAt returns (a copy of) the canonical-chain header at the given
// height. It never reads a body.
func (s *Store) HeaderAt(height uint64) (*Header, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, hdr, err := s.canonLocked(height)
	if err != nil {
		return nil, err
	}
	cp := *hdr
	return &cp, nil
}

// canonLocked looks a height up in the canonical index.
func (s *Store) canonLocked(height uint64) (chash.Hash, *Header, error) {
	if height > s.bestNum {
		return chash.Hash{}, nil, fmt.Errorf("%w: height %d beyond tip %d", ErrNotFound, height, s.bestNum)
	}
	h := s.canon[height]
	hdr, ok := s.headers[h]
	if !ok {
		return chash.Hash{}, nil, fmt.Errorf("%w: height %d is pruned", ErrNotFound, height)
	}
	return h, hdr, nil
}

// AtHeight returns the canonical-chain block at the given height.
func (s *Store) AtHeight(height uint64) (*Block, error) {
	h, err := s.HashAt(height)
	if err != nil {
		return nil, err
	}
	return s.Get(h)
}

// Len returns the number of stored blocks (including forks).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.headers)
}

// Headers returns (copies of) the canonical chain's headers from genesis to
// the best tip, in order. It is what a traditional light client
// synchronizes. On a pruned store nil is returned: the full history is gone.
func (s *Store) Headers() []*Header {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Header, len(s.canon))
	for height, h := range s.canon {
		hdr, ok := s.headers[h]
		if !ok {
			return nil
		}
		cp := *hdr
		out[height] = &cp
	}
	return out
}

// Prune discards blocks, headers included, more than keepLast blocks below
// the best tip, keeping the genesis block (the certification trust anchor).
// It returns the number of blocks dropped. Pruned stores can no longer serve
// full header syncs to traditional light clients — which is the point: a
// DCert CI only needs the recent tail, since superlight clients never ask
// for history.
func (s *Store) Prune(keepLast uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bestNum <= keepLast {
		return 0
	}
	cutoff := s.bestNum - keepLast
	dropped := 0
	for h, hashes := range s.byNum {
		if h == 0 || h >= cutoff {
			continue
		}
		for _, bh := range hashes {
			delete(s.headers, bh)
			delete(s.bodies, bh)
			dropped++
		}
		delete(s.byNum, h)
	}
	return dropped
}
