package mpt

import (
	"fmt"
	"math"
	"sort"

	"dcert/internal/chash"
)

// Witness is a set of content-addressed node encodings: a partial trie
// sufficient to replay Get (and non-deleting Put) for the keys it was
// extracted for. Because nodes are addressed by the hash of their bytes, a
// witness cannot equivocate: tampered bytes simply fail to resolve.
//
// Witness is the DCert update proof π_i = ({r}, π_r, π_w) carrier: the CI
// extracts it outside the enclave and the enclave replays reads and state
// updates against it (Alg. 1 line 3, Alg. 2 lines 17 and 22-23).
type Witness struct {
	nodes map[chash.Hash][]byte
}

var _ Resolver = (*Witness)(nil)

// NewWitness returns an empty witness.
func NewWitness() *Witness {
	return &Witness{nodes: make(map[chash.Hash][]byte)}
}

// Node implements Resolver.
func (w *Witness) Node(h chash.Hash) ([]byte, error) {
	raw, ok := w.nodes[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrMissingNode, h)
	}
	return raw, nil
}

// add stores a node encoding under its content hash.
func (w *Witness) add(raw []byte) {
	h := chash.Sum(chash.DomainNode, raw)
	if _, ok := w.nodes[h]; ok {
		return
	}
	cp := make([]byte, len(raw))
	copy(cp, raw)
	w.nodes[h] = cp
}

// Merge copies all nodes from other into w.
func (w *Witness) Merge(other *Witness) {
	for h, raw := range other.nodes {
		if _, ok := w.nodes[h]; !ok {
			w.nodes[h] = raw
		}
	}
}

// Len returns the number of distinct nodes.
func (w *Witness) Len() int {
	return len(w.nodes)
}

// EncodedSize returns the serialized size in bytes (the proof-size metric).
func (w *Witness) EncodedSize() int {
	size := 4
	for _, raw := range w.nodes {
		size += 4 + len(raw)
	}
	return size
}

// Marshal serializes the witness deterministically (nodes sorted by hash).
func (w *Witness) Marshal() []byte {
	hashes := make([]chash.Hash, 0, len(w.nodes))
	for h := range w.nodes {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool {
		return string(hashes[i][:]) < string(hashes[j][:])
	})
	e := chash.NewEncoder(w.EncodedSize())
	e.PutUint32(uint32(len(hashes)))
	for _, h := range hashes {
		e.PutBytes(w.nodes[h])
	}
	return e.Bytes()
}

// UnmarshalWitness parses a witness produced by Marshal. Node hashes are
// recomputed from the bytes, so a corrupted witness yields unusable (not
// wrong) nodes.
func UnmarshalWitness(raw []byte) (*Witness, error) {
	d := chash.NewDecoder(raw)
	n, err := d.Count(math.MaxInt, 4)
	if err != nil {
		return nil, fmt.Errorf("mpt: unmarshal witness: %w", err)
	}
	w := NewWitness()
	for i := range n {
		nodeRaw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("mpt: unmarshal witness node %d: %w", i, err)
		}
		w.add(nodeRaw)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("mpt: unmarshal witness: %w", err)
	}
	return w, nil
}

// WitnessForKeys extracts the nodes along the lookup paths of all keys. The
// resulting witness supports, on a partial trie with the same root:
//
//   - Get for every listed key (membership and proven absence), and
//   - Put for every listed key (inserts restructure only path nodes).
//
// Deletions may need extra sibling nodes and are not guaranteed to replay.
func (t *Trie) WitnessForKeys(keys [][]byte) (*Witness, error) {
	if _, err := t.Hash(); err != nil {
		return nil, fmt.Errorf("mpt: hash before witness: %w", err)
	}
	w := NewWitness()
	for _, key := range keys {
		if err := t.witnessWalk(t.root, keyToNibbles(key), w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (t *Trie) witnessWalk(n node, path []byte, w *Witness) error {
	if n == nil {
		return nil
	}
	resolved, err := t.resolve(n)
	if err != nil {
		return err
	}
	n = resolved
	raw, err := encodeNode(n)
	if err != nil {
		return err
	}
	w.add(raw)
	switch v := n.(type) {
	case *leafNode:
		return nil
	case *extNode:
		if len(path) < len(v.path) || commonPrefixLen(v.path, path) != len(v.path) {
			return nil // divergence: path ends here
		}
		return t.witnessWalk(v.child, path[len(v.path):], w)
	case *branchNode:
		if len(path) == 0 {
			return nil
		}
		return t.witnessWalk(v.children[path[0]], path[1:], w)
	default:
		return fmt.Errorf("mpt: witness walk on unexpected node %T", n)
	}
}

// Prove returns a single-key membership/absence proof (a witness of the
// key's path). Verify with VerifyProof.
func (t *Trie) Prove(key []byte) (*Witness, error) {
	return t.WitnessForKeys([][]byte{key})
}

// VerifyProof checks a single-key proof against a trie root. It returns the
// proven value (nil for proven absence). Any missing or tampered node yields
// an error instead.
func VerifyProof(root chash.Hash, key []byte, proof *Witness) ([]byte, error) {
	pt := NewPartial(root, proof)
	return pt.Get(key)
}
