package query

import (
	"fmt"
	"math"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/mbtree"
	"dcert/internal/node"
)

// ServiceProvider is the SP of §3.2: a full node that additionally maintains
// authenticated indexes over the chain and answers queries with integrity
// proofs. The SP is untrusted — clients verify everything it returns against
// index roots certified by the CI.
//
// ServiceProvider is not safe for concurrent use.
type ServiceProvider struct {
	node    *node.FullNode
	indexes map[string]*TwoLevel
	met     spObs
}

// NewServiceProvider wraps a full node.
func NewServiceProvider(n *node.FullNode) *ServiceProvider {
	return &ServiceProvider{node: n, indexes: make(map[string]*TwoLevel)}
}

// Node exposes the SP's full-node core.
func (sp *ServiceProvider) Node() *node.FullNode {
	return sp.node
}

// AddIndex registers an authenticated index. Indexes must be added before
// the blocks they should cover are processed (on-demand indexes cover data
// from their adoption point onward).
func (sp *ServiceProvider) AddIndex(ix *TwoLevel) error {
	if _, ok := sp.indexes[ix.Name()]; ok {
		return fmt.Errorf("query: index %q already added", ix.Name())
	}
	sp.indexes[ix.Name()] = ix
	return nil
}

// Index returns a registered index.
func (sp *ServiceProvider) Index(name string) (*TwoLevel, error) {
	ix, ok := sp.indexes[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown index %q", name)
	}
	return ix, nil
}

// ProcessBlock validates the block as a full node: ExecuteBlock, then
// AdoptBlock, whose root check runs before any index moves.
func (sp *ServiceProvider) ProcessBlock(blk *chain.Block) error {
	writes, err := sp.ExecuteBlock(blk)
	if err != nil {
		return err
	}
	return sp.AdoptBlock(blk, writes)
}

// ExecuteBlock runs node.FullNode.ExecuteBlock against the SP's tip and
// returns the block's write set, which only AdoptBlock binds to the
// header's state root.
func (sp *ServiceProvider) ExecuteBlock(blk *chain.Block) (map[string][]byte, error) {
	sp.met.validated.Inc()
	res, err := sp.node.ExecuteBlock(blk)
	if err != nil {
		return nil, err
	}
	return res.WriteSet, nil
}

// AdoptBlock advances the state replica and every index by a block whose
// write set an execution has already produced — this SP's own ExecuteBlock,
// or that of another SP of the same chain at the same tip.
// The node re-checks linkage and that the committed writes reproduce the
// header's state root (see node.FullNode.AdoptBlock); a block or write set
// that fails either check leaves the SP exactly as it was.
//
// The indexes are applied after those checks and before the block becomes
// the tip. Apply has no failure left that depends on the input (its errors
// are those of partial, witness-backed trees, which an SP does not hold),
// and it is idempotent per block, so should it ever fail, the state is put
// back, the tip stays, and adopting the same block again completes the
// entries a first attempt left behind.
func (sp *ServiceProvider) AdoptBlock(blk *chain.Block, writes map[string][]byte) error {
	return sp.node.AdoptBlock(blk, writes, func() error {
		for _, ix := range sp.indexes {
			if err := ix.Apply(blk, writes); err != nil {
				return fmt.Errorf("query: apply to %q: %w", ix.Name(), err)
			}
			sp.met.indexApplies.Inc()
		}
		return nil
	})
}

// Seal pre-hashes every lazily-hashed structure the SP serves from — the
// state commitment, each index's upper trie, and each index's lower trees —
// so that subsequent query paths (Get, Prove, WitnessForRange) are pure
// reads. A sealed SP that processes no further blocks can answer queries
// from many goroutines concurrently; the fleet's snapshot discipline relies
// on this.
func (sp *ServiceProvider) Seal() error {
	if _, err := sp.node.State().Root(); err != nil {
		return fmt.Errorf("query: seal state: %w", err)
	}
	for _, ix := range sp.indexes {
		if _, err := ix.Root(); err != nil {
			return fmt.Errorf("query: seal index %q: %w", ix.Name(), err)
		}
		for key, lower := range ix.lowers {
			if _, err := lower.Root(); err != nil {
				return fmt.Errorf("query: seal index %q key %q: %w", ix.Name(), key, err)
			}
		}
	}
	return nil
}

// HistoricalResult is the SP's answer to a historical range query.
type HistoricalResult struct {
	// Key is the queried state key.
	Key string
	// Lo and Hi bound the version window.
	Lo, Hi uint64
	// Entries are the claimed results.
	Entries []mbtree.Entry
	// Proof is the integrity/completeness proof.
	Proof *RangeProof
}

// HistoricalQuery answers "values of key in [lo, hi]" on the named index.
func (sp *ServiceProvider) HistoricalQuery(index, key string, lo, hi uint64) (*HistoricalResult, error) {
	ix, err := sp.Index(index)
	if err != nil {
		return nil, err
	}
	entries, proof, err := ix.QueryRange(key, lo, hi)
	if err != nil {
		return nil, err
	}
	return &HistoricalResult{Key: key, Lo: lo, Hi: hi, Entries: entries, Proof: proof}, nil
}

// VerifyHistorical validates a historical result against the certified index
// root.
func VerifyHistorical(indexRoot chash.Hash, res *HistoricalResult) error {
	return VerifyRange(indexRoot, res.Key, res.Lo, res.Hi, res.Entries, res.Proof)
}

// Posting is one keyword-index hit.
type Posting struct {
	// Version encodes (height, txIndex); see PostingVersion.
	Version uint64
	// TxHash is the matching transaction's digest.
	TxHash chash.Hash
}

// KeywordResult is the SP's answer to a conjunctive keyword query: the
// per-keyword posting lists with proofs, plus the claimed intersection.
type KeywordResult struct {
	// Keywords are the conjuncts, in query order.
	Keywords []string
	// Lists holds each keyword's complete posting list.
	Lists [][]mbtree.Entry
	// Proofs authenticate each list.
	Proofs []*RangeProof
	// Matches is the claimed intersection (transactions containing ALL
	// keywords), ordered by version.
	Matches []Posting
}

// ProofSize returns the total proof size in bytes.
func (r *KeywordResult) ProofSize() int {
	size := 0
	for _, p := range r.Proofs {
		size += p.EncodedSize()
	}
	return size
}

// KeywordQuery answers a conjunctive keyword query (q = [w1 AND w2 AND …],
// §5.4) on the named index.
func (sp *ServiceProvider) KeywordQuery(index string, keywords []string) (*KeywordResult, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("query: empty keyword query")
	}
	ix, err := sp.Index(index)
	if err != nil {
		return nil, err
	}
	res := &KeywordResult{Keywords: keywords}
	for _, kw := range keywords {
		entries, proof, err := ix.QueryRange(kw, 0, math.MaxUint64)
		if err != nil {
			return nil, err
		}
		res.Lists = append(res.Lists, entries)
		res.Proofs = append(res.Proofs, proof)
	}
	res.Matches = intersectPostings(res.Lists)
	return res, nil
}

// intersectPostings intersects sorted posting lists by version.
func intersectPostings(lists [][]mbtree.Entry) []Posting {
	if len(lists) == 0 {
		return nil
	}
	// Start with the shortest list to bound work.
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	var out []Posting
	for _, e := range lists[shortest] {
		inAll := true
		for i, l := range lists {
			if i == shortest {
				continue
			}
			if !containsVersion(l, e.Version) {
				inAll = false
				break
			}
		}
		if inAll {
			h, err := chash.FromBytes(e.Value)
			if err != nil {
				continue // malformed entry cannot be a genuine posting
			}
			out = append(out, Posting{Version: e.Version, TxHash: h})
		}
	}
	return out
}

// containsVersion binary-searches a sorted entry list.
func containsVersion(l []mbtree.Entry, v uint64) bool {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case l[mid].Version == v:
			return true
		case l[mid].Version < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// VerifyKeyword validates a conjunctive keyword result against the certified
// index root: each posting list is verified complete, and the intersection
// is recomputed locally and compared with the claim.
func VerifyKeyword(indexRoot chash.Hash, res *KeywordResult) error {
	if len(res.Keywords) == 0 || len(res.Lists) != len(res.Keywords) || len(res.Proofs) != len(res.Keywords) {
		return fmt.Errorf("%w: malformed keyword result", ErrBadProof)
	}
	for i, kw := range res.Keywords {
		if err := VerifyRange(indexRoot, kw, 0, math.MaxUint64, res.Lists[i], res.Proofs[i]); err != nil {
			return fmt.Errorf("%w: keyword %q: %v", ErrBadProof, kw, err)
		}
	}
	want := intersectPostings(res.Lists)
	if len(want) != len(res.Matches) {
		return fmt.Errorf("%w: %d matches claimed, %d proven", ErrResultMismatch, len(res.Matches), len(want))
	}
	for i := range want {
		if want[i] != res.Matches[i] {
			return fmt.Errorf("%w: match %d", ErrResultMismatch, i)
		}
	}
	return nil
}
