// Package query implements DCert's verifiable-query layer (§5): the query
// service provider (SP), the authenticated indexes it maintains, the
// integrity proofs it returns, and the client-side result verifier.
//
// The central structure is the two-level index of Fig. 5: an upper Merkle
// Patricia Trie maps an index key (account/state key, or keyword) to the
// root of a lower Merkle B⁺-tree holding that key's versioned entries. Both
// the historical-account index and the inverted keyword index are
// instantiations with different extraction logic. Each index implements
// core.IndexUpdater, so the certificate issuer's enclave can certify its
// root on every block (augmented or hierarchical scheme).
package query

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/mbtree"
	"dcert/internal/mpt"
)

// Package errors.
var (
	// ErrBadProof is returned when a query proof fails verification.
	ErrBadProof = errors.New("query: proof verification failed")
	// ErrResultMismatch is returned when the SP's claimed results disagree
	// with the verified ones.
	ErrResultMismatch = errors.New("query: results do not match proof")
	// ErrBadWitness is returned for malformed index-update witnesses.
	ErrBadWitness = errors.New("query: malformed update witness")
)

// LowerOrder is the fanout of every lower-level Merkle B⁺-tree.
const LowerOrder = mbtree.DefaultOrder

// Insertion is one index update extracted from a block: entry (Version,
// Value) appended under the index key.
type Insertion struct {
	// Key selects the lower tree (account key or keyword).
	Key string
	// Version orders entries within the lower tree.
	Version uint64
	// Value is the entry payload.
	Value []byte
}

// Extractor derives the index updates implied by a block and its verified
// state write set. It must be deterministic: the same function runs inside
// the CI's enclave during certification. Implementations return insertions
// sorted by (Key, Version).
type Extractor func(blk *chain.Block, writes map[string][]byte) []Insertion

// sortInsertions canonically orders insertions.
func sortInsertions(ins []Insertion) {
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].Key != ins[j].Key {
			return ins[i].Key < ins[j].Key
		}
		return ins[i].Version < ins[j].Version
	})
}

// TwoLevel is the SP-side two-level authenticated index.
//
// TwoLevel is not safe for concurrent use.
type TwoLevel struct {
	name    string
	extract Extractor
	upper   *mpt.Trie
	lowers  map[string]*mbtree.Tree
}

var _ core.IndexUpdater = (*TwoLevel)(nil)

// NewTwoLevel creates an empty two-level index with the given update
// extraction logic.
func NewTwoLevel(name string, extract Extractor) (*TwoLevel, error) {
	if name == "" {
		return nil, fmt.Errorf("query: empty index name")
	}
	if extract == nil {
		return nil, fmt.Errorf("query: nil extractor")
	}
	return &TwoLevel{
		name:    name,
		extract: extract,
		upper:   mpt.New(),
		lowers:  make(map[string]*mbtree.Tree),
	}, nil
}

// Name implements core.IndexUpdater.
func (ix *TwoLevel) Name() string {
	return ix.name
}

// Root returns the index commitment H_idx (the upper trie root).
func (ix *TwoLevel) Root() (chash.Hash, error) {
	return ix.upper.Hash()
}

// Apply updates the real index with a block's insertions (SP side).
func (ix *TwoLevel) Apply(blk *chain.Block, writes map[string][]byte) error {
	for _, in := range ix.extract(blk, writes) {
		lower, ok := ix.lowers[in.Key]
		if !ok {
			var err error
			if lower, err = mbtree.New(LowerOrder); err != nil {
				return err
			}
			ix.lowers[in.Key] = lower
		}
		if err := lower.Insert(in.Version, in.Value); err != nil {
			return fmt.Errorf("query: apply %q@%d: %w", in.Key, in.Version, err)
		}
		root, err := lower.Root()
		if err != nil {
			return err
		}
		if err := ix.upper.Put([]byte(in.Key), root.Bytes()); err != nil {
			return fmt.Errorf("query: apply upper %q: %w", in.Key, err)
		}
	}
	return nil
}

// UpdateWitness builds π_idx for replaying a block's insertions on the
// CURRENT (pre-block) index state: the upper paths of every touched key and
// the lower insertion paths of every touched version.
func (ix *TwoLevel) UpdateWitness(blk *chain.Block, writes map[string][]byte) ([]byte, error) {
	ins := ix.extract(blk, writes)
	keys := make([][]byte, 0, len(ins))
	versionsByKey := make(map[string][]uint64)
	for _, in := range ins {
		if _, ok := versionsByKey[in.Key]; !ok {
			keys = append(keys, []byte(in.Key))
		}
		versionsByKey[in.Key] = append(versionsByKey[in.Key], in.Version)
	}

	var upperW *mpt.Witness
	if len(keys) == 0 {
		upperW = mpt.NewWitness()
	} else {
		var err error
		if upperW, err = ix.upper.WitnessForKeys(keys); err != nil {
			return nil, fmt.Errorf("query: upper witness: %w", err)
		}
	}

	lowerNames := make([]string, 0, len(versionsByKey))
	for k := range versionsByKey {
		lowerNames = append(lowerNames, k)
	}
	sort.Strings(lowerNames)

	e := chash.NewEncoder(1024)
	e.PutBytes(upperW.Marshal())
	e.PutUint32(uint32(len(lowerNames)))
	for _, k := range lowerNames {
		e.PutString(k)
		lower, ok := ix.lowers[k]
		if !ok {
			// Key is new: the lower tree starts empty, no witness needed.
			e.PutBytes(mbtree.NewWitness().Marshal())
			continue
		}
		w, err := lower.WitnessForInsert(versionsByKey[k])
		if err != nil {
			return nil, fmt.Errorf("query: lower witness %q: %w", k, err)
		}
		e.PutBytes(w.Marshal())
	}
	return e.Bytes(), nil
}

// decodeUpdateWitness parses the combined witness.
func decodeUpdateWitness(raw []byte) (*mpt.Witness, map[string]*mbtree.Witness, error) {
	d := chash.NewDecoder(raw)
	upperRaw, err := d.ReadBytes()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadWitness, err)
	}
	upperW, err := mpt.UnmarshalWitness(upperRaw)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadWitness, err)
	}
	n, err := d.Count(1<<20, 8)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: lower witnesses: %v", ErrBadWitness, err)
	}
	lowers := make(map[string]*mbtree.Witness, n)
	for range n {
		k, err := d.ReadString()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadWitness, err)
		}
		wRaw, err := d.ReadBytes()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadWitness, err)
		}
		w, err := mbtree.UnmarshalWitness(wRaw)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadWitness, err)
		}
		lowers[k] = w
	}
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadWitness, err)
	}
	return upperW, lowers, nil
}

// Replay implements core.IndexUpdater: it statelessly re-derives the
// post-block index root from the pre-block root and the witness, running the
// same Extractor the SP used (lines 8-10 of Alg. 4: get_index_write_data,
// verify_mht, update). This method is part of the trusted program.
func (ix *TwoLevel) Replay(prevRoot chash.Hash, witness []byte, blk *chain.Block, writes map[string][]byte) (chash.Hash, error) {
	upperW, lowerWs, err := decodeUpdateWitness(witness)
	if err != nil {
		return chash.Zero, err
	}
	upper := mpt.NewPartial(prevRoot, upperW)

	partialLowers := make(map[string]*mbtree.Tree)
	for _, in := range ix.extract(blk, writes) {
		lower, ok := partialLowers[in.Key]
		if !ok {
			rootBytes, err := upper.Get([]byte(in.Key))
			if err != nil {
				return chash.Zero, fmt.Errorf("%w: upper get %q: %v", ErrBadWitness, in.Key, err)
			}
			lowerRoot := chash.Zero
			if rootBytes != nil {
				if lowerRoot, err = chash.FromBytes(rootBytes); err != nil {
					return chash.Zero, fmt.Errorf("%w: lower root %q: %v", ErrBadWitness, in.Key, err)
				}
			}
			lw, ok := lowerWs[in.Key]
			if !ok {
				lw = mbtree.NewWitness()
			}
			if lower, err = mbtree.NewPartial(LowerOrder, lowerRoot, lw); err != nil {
				return chash.Zero, err
			}
			partialLowers[in.Key] = lower
		}
		if err := lower.Insert(in.Version, in.Value); err != nil {
			return chash.Zero, fmt.Errorf("%w: lower insert %q@%d: %v", ErrBadWitness, in.Key, in.Version, err)
		}
	}
	for k, lower := range partialLowers {
		root, err := lower.Root()
		if err != nil {
			return chash.Zero, err
		}
		if err := upper.Put([]byte(k), root.Bytes()); err != nil {
			return chash.Zero, fmt.Errorf("%w: upper put %q: %v", ErrBadWitness, k, err)
		}
	}
	newRoot, err := upper.Hash()
	if err != nil {
		return chash.Zero, fmt.Errorf("%w: upper hash: %v", ErrBadWitness, err)
	}
	return newRoot, nil
}

// RangeProof is the integrity proof for a two-level range query: the upper
// path authenticating the lower root, plus the lower range scan witness.
type RangeProof struct {
	// Upper authenticates Key → lower root under the certified index root.
	Upper *mpt.Witness
	// Lower authenticates the complete range scan (nil when Key is absent).
	Lower *mbtree.Witness
}

// EncodedSize returns the proof size in bytes (Fig. 11b metric).
func (p *RangeProof) EncodedSize() int {
	size := p.Upper.EncodedSize()
	if p.Lower != nil {
		size += p.Lower.EncodedSize()
	}
	return size
}

// QueryRange answers a versioned range query over one key with an integrity
// and completeness proof (SP side, §5.3).
func (ix *TwoLevel) QueryRange(key string, lo, hi uint64) ([]mbtree.Entry, *RangeProof, error) {
	upperW, err := ix.upper.Prove([]byte(key))
	if err != nil {
		return nil, nil, fmt.Errorf("query: upper proof: %w", err)
	}
	lower, ok := ix.lowers[key]
	if !ok {
		// Proven absence of the key: empty result, upper proof suffices.
		return nil, &RangeProof{Upper: upperW}, nil
	}
	entries, err := lower.Range(lo, hi)
	if err != nil {
		return nil, nil, err
	}
	lowerW, err := lower.WitnessForRange(lo, hi)
	if err != nil {
		return nil, nil, fmt.Errorf("query: lower proof: %w", err)
	}
	return entries, &RangeProof{Upper: upperW, Lower: lowerW}, nil
}

// VerifyRange validates a range-query result against the certified index
// root (client side, §5.3): the upper proof authenticates the lower root,
// the lower proof re-runs the complete range scan, and the result must match
// the SP's claim exactly.
func VerifyRange(indexRoot chash.Hash, key string, lo, hi uint64, claimed []mbtree.Entry, proof *RangeProof) error {
	if proof == nil || proof.Upper == nil {
		return fmt.Errorf("%w: missing proof", ErrBadProof)
	}
	rootBytes, err := mpt.VerifyProof(indexRoot, []byte(key), proof.Upper)
	if err != nil {
		return fmt.Errorf("%w: upper: %v", ErrBadProof, err)
	}
	if rootBytes == nil {
		// Key proven absent: the only valid claim is the empty result.
		if len(claimed) != 0 {
			return fmt.Errorf("%w: results claimed for absent key", ErrResultMismatch)
		}
		return nil
	}
	lowerRoot, err := chash.FromBytes(rootBytes)
	if err != nil {
		return fmt.Errorf("%w: lower root: %v", ErrBadProof, err)
	}
	if proof.Lower == nil {
		return fmt.Errorf("%w: missing lower proof", ErrBadProof)
	}
	verified, err := mbtree.VerifyRange(LowerOrder, lowerRoot, lo, hi, proof.Lower)
	if err != nil {
		return fmt.Errorf("%w: lower: %v", ErrBadProof, err)
	}
	if len(verified) != len(claimed) {
		return fmt.Errorf("%w: %d claimed, %d proven", ErrResultMismatch, len(claimed), len(verified))
	}
	for i := range verified {
		if verified[i].Version != claimed[i].Version || !bytes.Equal(verified[i].Value, claimed[i].Value) {
			return fmt.Errorf("%w: entry %d", ErrResultMismatch, i)
		}
	}
	return nil
}
