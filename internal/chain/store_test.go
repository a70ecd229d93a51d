package chain

import (
	"errors"
	"testing"

	"dcert/internal/chash"
)

func genesisBlock() *Block {
	return &Block{Header: Header{Height: 0, Time: 1}}
}

// childOf builds a minimal valid child block.
func childOf(parent *Block, tweak uint64) *Block {
	return &Block{Header: Header{
		Height:   parent.Header.Height + 1,
		PrevHash: parent.Hash(),
		Time:     parent.Header.Time + 1 + tweak,
	}}
}

func TestNewStoreRejectsBadGenesis(t *testing.T) {
	if _, err := NewStore(&Block{Header: Header{Height: 3}}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("want ErrBadBlock, got %v", err)
	}
}

func TestStoreLinearChain(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	cur := g
	for i := 0; i < 10; i++ {
		b := childOf(cur, 0)
		best, err := s.Add(b)
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if !best {
			t.Fatalf("block %d should become best", i)
		}
		cur = b
	}
	if s.BestHeight() != 10 {
		t.Fatalf("BestHeight = %d", s.BestHeight())
	}
	if s.Best().Hash() != cur.Hash() {
		t.Fatal("Best() is not the tip")
	}
	if s.Len() != 11 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreRejectsUnknownParent(t *testing.T) {
	s, err := NewStore(genesisBlock())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	orphan := &Block{Header: Header{Height: 1, PrevHash: chash.Leaf([]byte("nowhere"))}}
	if _, err := s.Add(orphan); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("want ErrUnknownParent, got %v", err)
	}
}

func TestStoreRejectsWrongHeight(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	bad := &Block{Header: Header{Height: 5, PrevHash: g.Hash()}}
	if _, err := s.Add(bad); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("want ErrBadBlock, got %v", err)
	}
}

func TestStoreDuplicateAddIsNoop(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	b := childOf(g, 0)
	if _, err := s.Add(b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	best, err := s.Add(b)
	if err != nil {
		t.Fatalf("duplicate Add: %v", err)
	}
	if best {
		t.Fatal("duplicate add must not change best")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLongestChainRule(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	// Main chain: g -> a1 -> a2.
	a1 := childOf(g, 0)
	a2 := childOf(a1, 0)
	// Fork: g -> b1 (same height as a1, arrives later).
	b1 := childOf(g, 100)

	if _, err := s.Add(a1); err != nil {
		t.Fatalf("Add(a1): %v", err)
	}
	best, err := s.Add(b1)
	if err != nil {
		t.Fatalf("Add(b1): %v", err)
	}
	if best {
		t.Fatal("equal-height fork must not displace the first-seen tip")
	}
	if s.Best().Hash() != a1.Hash() {
		t.Fatal("tie must keep first-arrived block")
	}
	// Extending the fork past the main chain flips the best tip.
	b2 := childOf(b1, 0)
	b3 := childOf(b2, 0)
	if _, err := s.Add(a2); err != nil {
		t.Fatalf("Add(a2): %v", err)
	}
	if _, err := s.Add(b2); err != nil {
		t.Fatalf("Add(b2): %v", err)
	}
	best, err = s.Add(b3)
	if err != nil {
		t.Fatalf("Add(b3): %v", err)
	}
	if !best {
		t.Fatal("longer fork must become best")
	}
	if s.Best().Hash() != b3.Hash() {
		t.Fatal("best tip must be the longest chain")
	}
	// AtHeight walks the canonical (fork) chain.
	at1, err := s.AtHeight(1)
	if err != nil {
		t.Fatalf("AtHeight: %v", err)
	}
	if at1.Hash() != b1.Hash() {
		t.Fatal("AtHeight must follow the canonical chain")
	}
	// The canonical index switched branch at every height, and Headers
	// lists the new branch too.
	want := []*Block{g, b1, b2, b3}
	hdrs := s.Headers()
	if len(hdrs) != len(want) {
		t.Fatalf("Headers len = %d, want %d", len(hdrs), len(want))
	}
	for h, blk := range want {
		at, err := s.AtHeight(uint64(h))
		if err != nil {
			t.Fatalf("AtHeight(%d): %v", h, err)
		}
		if at.Hash() != blk.Hash() {
			t.Fatalf("AtHeight(%d) is on the abandoned branch", h)
		}
		if hdrs[h].Hash() != blk.Hash() {
			t.Fatalf("Headers()[%d] is on the abandoned branch", h)
		}
	}
}

// mapSource is a BodySource over a map, counting its reads.
type mapSource struct {
	blocks map[chash.Hash]*Block
	reads  int
}

func (m *mapSource) BlockByHash(h chash.Hash) (*Block, error) {
	m.reads++
	b, ok := m.blocks[h]
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

// TestStoreKeepsBodiesInWindow: with a body source, a store holds only the
// last BodyWindow heights' bodies; older ones are read back from the
// source, and the header accessors never touch it.
func TestStoreKeepsBodiesInWindow(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	src := &mapSource{blocks: map[chash.Hash]*Block{}}
	s.SetBodySource(src)
	chain := []*Block{g}
	for i := 0; i < BodyWindow+8; i++ {
		b := childOf(chain[len(chain)-1], 0)
		src.blocks[b.Hash()] = b
		if _, err := s.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
		chain = append(chain, b)
	}
	tip := uint64(len(chain) - 1)
	for h := range chain {
		if _, err := s.HeaderAt(uint64(h)); err != nil {
			t.Fatalf("HeaderAt(%d): %v", h, err)
		}
	}
	if s.Headers() == nil || src.reads != 0 {
		t.Fatalf("header accessors read %d bodies", src.reads)
	}
	for h := tip - BodyWindow + 1; h <= tip; h++ {
		if _, err := s.AtHeight(h); err != nil {
			t.Fatalf("AtHeight(%d): %v", h, err)
		}
	}
	if src.reads != 0 {
		t.Fatalf("bodies inside the window read back %d times", src.reads)
	}
	for h := uint64(1); h <= tip-BodyWindow; h++ {
		b, err := s.AtHeight(h)
		if err != nil {
			t.Fatalf("AtHeight(%d): %v", h, err)
		}
		if b != chain[h] {
			t.Fatalf("AtHeight(%d) returned another block", h)
		}
	}
	if want := int(tip - BodyWindow); src.reads != want {
		t.Fatalf("%d read-backs, want %d (one per evicted height)", src.reads, want)
	}
	if _, err := s.Get(g.Hash()); err != nil || src.reads != int(tip-BodyWindow) {
		t.Fatalf("genesis body must stay in memory (err %v)", err)
	}

	// A source that answers with another block is refused.
	src.blocks[chain[1].Hash()] = chain[2]
	if _, err := s.AtHeight(1); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("mismatched read-back: want ErrBadBlock, got %v", err)
	}
}

func TestAddHeaderNeedsBodySource(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	b := childOf(g, 0)
	if _, err := s.AddHeader(&b.Header); err == nil {
		t.Fatal("a store without a body source must refuse a header-only block")
	}
	src := &mapSource{blocks: map[chash.Hash]*Block{b.Hash(): b}}
	s.SetBodySource(src)
	if _, err := s.AddHeader(&b.Header); err != nil {
		t.Fatalf("AddHeader: %v", err)
	}
	// A resumed store links its tip with Add; a header-only block's body
	// comes from the source, and is not kept in memory afterwards.
	c := childOf(b, 0)
	if _, err := s.Add(c); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if best := s.Best(); best != c {
		t.Fatal("Best must return the tip linked with its body")
	}
	for i := 1; i <= 2; i++ {
		got, err := s.Get(b.Hash())
		if err != nil || got.Hash() != b.Hash() {
			t.Fatalf("Get header-only block: %v", err)
		}
		if src.reads != i {
			t.Fatalf("read %d: source read %d times, want %d", i, src.reads, i)
		}
	}
}

func TestAtHeightBeyondTip(t *testing.T) {
	s, err := NewStore(genesisBlock())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if _, err := s.AtHeight(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestGetUnknown(t *testing.T) {
	s, err := NewStore(genesisBlock())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if _, err := s.Get(chash.Leaf([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestHeaders(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	cur := g
	for i := 0; i < 5; i++ {
		b := childOf(cur, 0)
		if _, err := s.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
		cur = b
	}
	hdrs := s.Headers()
	if len(hdrs) != 6 {
		t.Fatalf("Headers len = %d", len(hdrs))
	}
	for i, h := range hdrs {
		if h.Height != uint64(i) {
			t.Fatalf("header %d has height %d", i, h.Height)
		}
		if i > 0 && h.PrevHash != hdrs[i-1].Hash() {
			t.Fatalf("header %d not linked", i)
		}
	}
}

func TestPruneKeepsRecentTailAndGenesis(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	cur := g
	for i := 0; i < 20; i++ {
		b := childOf(cur, 0)
		if _, err := s.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
		cur = b
	}
	dropped := s.Prune(5)
	if dropped != 14 { // heights 1..14 dropped; 15..20 + genesis kept
		t.Fatalf("dropped %d blocks, want 14", dropped)
	}
	// Tip and genesis survive.
	if s.Best().Hash() != cur.Hash() {
		t.Fatal("tip lost after prune")
	}
	if _, err := s.Get(s.Genesis()); err != nil {
		t.Fatal("genesis lost after prune")
	}
	// Recent tail is intact.
	if _, err := s.AtHeight(16); err != nil {
		t.Fatalf("AtHeight(16): %v", err)
	}
	// Deep history is gone; walks past the horizon fail cleanly.
	if _, err := s.AtHeight(3); err == nil {
		t.Fatal("pruned height should not resolve")
	}
	if s.Headers() != nil {
		t.Fatal("Headers over a pruned store must return nil")
	}
	// The chain keeps extending after pruning.
	b := childOf(cur, 0)
	if _, err := s.Add(b); err != nil {
		t.Fatalf("Add after prune: %v", err)
	}
}

func TestPruneNoopOnShortChain(t *testing.T) {
	g := genesisBlock()
	s, err := NewStore(g)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	b := childOf(g, 0)
	if _, err := s.Add(b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if dropped := s.Prune(10); dropped != 0 {
		t.Fatalf("dropped %d on short chain", dropped)
	}
}
