package mbtree

import (
	"fmt"
	"math"
	"sort"

	"dcert/internal/chash"
)

// Node encoding tags.
const (
	tagLeaf     byte = 1
	tagInternal byte = 2
)

// hashRec computes (and caches) node digests bottom-up.
func (t *Tree) hashRec(n *node) (chash.Hash, error) {
	if !n.dirty && !n.hash.IsZero() {
		return n.hash, nil
	}
	if !n.leaf {
		for i := range n.kids {
			if n.kids[i].n == nil {
				// Unresolved child: its hash is already final.
				continue
			}
			h, err := t.hashRec(n.kids[i].n)
			if err != nil {
				return chash.Zero, err
			}
			n.kids[i].hash = h
		}
	}
	raw, err := encodeNode(n)
	if err != nil {
		return chash.Zero, err
	}
	n.hash = chash.Sum(chash.DomainIndex, raw)
	n.dirty = false
	return n.hash, nil
}

// encodeNode serializes a node. Child hashes must be current.
func encodeNode(n *node) ([]byte, error) {
	e := chash.NewEncoder(64)
	if n.leaf {
		e.PutByte(tagLeaf)
		e.PutUint32(uint32(len(n.entries)))
		for _, ent := range n.entries {
			e.PutUint64(ent.Version)
			e.PutBytes(ent.Value)
		}
		return e.Bytes(), nil
	}
	e.PutByte(tagInternal)
	e.PutUint32(uint32(len(n.keys)))
	for _, k := range n.keys {
		e.PutUint64(k)
	}
	e.PutUint32(uint32(len(n.kids)))
	for i := range n.kids {
		h := n.kids[i].hash
		if n.kids[i].n != nil {
			var ok bool
			if h, ok = cachedNodeHash(n.kids[i].n); !ok {
				return nil, fmt.Errorf("mbtree: encode with dirty child")
			}
		}
		e.PutHash(h)
	}
	return e.Bytes(), nil
}

func cachedNodeHash(n *node) (chash.Hash, bool) {
	if n.dirty || n.hash.IsZero() {
		return chash.Zero, false
	}
	return n.hash, true
}

// decodeNode parses a node encoding, leaving children unresolved.
func decodeNode(h chash.Hash, raw []byte) (*node, error) {
	d := chash.NewDecoder(raw)
	tag, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
	}
	switch tag {
	case tagLeaf:
		// An entry is at least its version and its value's length prefix.
		count, err := d.Count(1<<20, 12)
		if err != nil {
			return nil, fmt.Errorf("%w: leaf: %v", ErrBadNode, err)
		}
		n := &node{leaf: true, hash: h, entries: make([]Entry, 0, count)}
		for range count {
			v, err := d.Uint64()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
			}
			val, err := d.ReadBytes()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
			}
			n.entries = append(n.entries, Entry{Version: v, Value: val})
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
		}
		return n, nil
	case tagInternal:
		nKeys, err := d.Count(1<<20, 8)
		if err != nil {
			return nil, fmt.Errorf("%w: keys: %v", ErrBadNode, err)
		}
		n := &node{hash: h, keys: make([]uint64, 0, nKeys)}
		for range nKeys {
			k, err := d.Uint64()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
			}
			n.keys = append(n.keys, k)
		}
		nKids, err := d.Count(nKeys+1, chash.Size)
		if err != nil {
			return nil, fmt.Errorf("%w: children: %v", ErrBadNode, err)
		}
		if nKids != nKeys+1 {
			return nil, fmt.Errorf("%w: %d children for %d keys", ErrBadNode, nKids, nKeys)
		}
		n.kids = make([]child, 0, nKids)
		for range nKids {
			ch, err := d.ReadHash()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
			}
			n.kids = append(n.kids, child{hash: ch})
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
		}
		return n, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrBadNode, tag)
	}
}

// Witness is a set of content-addressed node encodings sufficient to replay
// a set of tree operations statelessly. It doubles as the integrity proof
// for range queries (the proof-size metric in Fig. 11 is its encoded size).
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

func (w *Witness) add(raw []byte) {
	h := chash.Sum(chash.DomainIndex, raw)
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

// EncodedSize returns the serialized size in bytes.
func (w *Witness) EncodedSize() int {
	size := 4
	for _, raw := range w.nodes {
		size += 4 + len(raw)
	}
	return size
}

// Marshal serializes the witness deterministically.
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

// UnmarshalWitness parses a witness produced by Marshal.
func UnmarshalWitness(raw []byte) (*Witness, error) {
	d := chash.NewDecoder(raw)
	n, err := d.Count(math.MaxInt, 4)
	if err != nil {
		return nil, fmt.Errorf("mbtree: unmarshal witness: %w", err)
	}
	w := NewWitness()
	for i := range n {
		nodeRaw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("mbtree: unmarshal witness node %d: %w", i, err)
		}
		w.add(nodeRaw)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("mbtree: unmarshal witness: %w", err)
	}
	return w, nil
}

// WitnessForRange extracts the nodes visited by a [lo, hi] range scan: every
// node overlapping the range plus the path to it. Replaying Range on a
// partial tree over this witness yields the identical, provably complete
// result set.
func (t *Tree) WitnessForRange(lo, hi uint64) (*Witness, error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: [%d, %d]", ErrBadRange, lo, hi)
	}
	if _, err := t.Root(); err != nil {
		return nil, err
	}
	w := NewWitness()
	root, err := t.loadRoot()
	if err != nil {
		return nil, err
	}
	if root == nil {
		return w, nil
	}
	if err := t.witnessRange(root, lo, hi, w); err != nil {
		return nil, err
	}
	return w, nil
}

func (t *Tree) witnessRange(n *node, lo, hi uint64, w *Witness) error {
	raw, err := encodeNode(n)
	if err != nil {
		return err
	}
	w.add(raw)
	if n.leaf {
		return nil
	}
	for i := range n.kids {
		cLo := uint64(0)
		if i > 0 {
			cLo = n.keys[i-1]
		}
		cHi := uint64(1<<64 - 1)
		if i < len(n.keys) {
			cHi = n.keys[i] - 1
		}
		if cHi < lo || cLo > hi {
			continue
		}
		c, err := t.resolveChild(&n.kids[i])
		if err != nil {
			return err
		}
		if err := t.witnessRange(c, lo, hi, w); err != nil {
			return err
		}
	}
	return nil
}

// WitnessForInsert extracts the nodes needed to replay inserting the given
// versions: the lookup path of each version. Splits only restructure path
// nodes, so the witness is sufficient for stateless insertion.
func (t *Tree) WitnessForInsert(versions []uint64) (*Witness, error) {
	if _, err := t.Root(); err != nil {
		return nil, err
	}
	w := NewWitness()
	root, err := t.loadRoot()
	if err != nil {
		return nil, err
	}
	if root == nil {
		return w, nil
	}
	for _, v := range versions {
		if err := t.witnessPath(root, v, w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (t *Tree) witnessPath(n *node, version uint64, w *Witness) error {
	raw, err := encodeNode(n)
	if err != nil {
		return err
	}
	w.add(raw)
	if n.leaf {
		return nil
	}
	idx := childIndex(n.keys, version)
	c, err := t.resolveChild(&n.kids[idx])
	if err != nil {
		return err
	}
	return t.witnessPath(c, version, w)
}

// VerifyRange re-runs the range scan on a partial tree over the proof and
// returns the complete, authenticated result set. Callers compare it to the
// results claimed by the service provider. An error means the proof is
// missing nodes, tampered, or internally inconsistent.
func VerifyRange(order int, root chash.Hash, lo, hi uint64, proof *Witness) ([]Entry, error) {
	pt, err := NewPartial(order, root, proof)
	if err != nil {
		return nil, err
	}
	return pt.Range(lo, hi)
}
