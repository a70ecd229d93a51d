// Package smt implements a fixed-depth sparse Merkle tree over bit-string
// keys, the structure shown in Fig. 4 of the DCert paper. It provides the two
// trusted primitives the in-enclave program relies on:
//
//   - verify_mht(root, π, {kv}): check a multiproof for a set of keys (reads
//     or write neighbourhoods) against a committed root, and
//   - update(π, {w}): recompute the root after replacing the proven leaves
//     with new values, using only the proof — no access to the full tree.
//
// Empty subtrees hash to per-level default digests, so absence of a key is
// provable with the same multiproof mechanism.
package smt

import (
	"errors"
	"fmt"
	"sort"

	"dcert/internal/chash"
)

// Package errors.
var (
	// ErrBadDepth is returned for tree depths outside [1, MaxDepth].
	ErrBadDepth = errors.New("smt: depth out of range")
	// ErrBadProof is returned when a multiproof fails verification.
	ErrBadProof = errors.New("smt: proof verification failed")
	// ErrKeyMismatch is returned when the key set given to a proof operation
	// differs from the proof's key set.
	ErrKeyMismatch = errors.New("smt: key set does not match proof")
)

// MaxDepth is the deepest supported tree (one bit per level of a digest).
const MaxDepth = 8 * chash.Size

// Key addresses a leaf: the first Tree.Depth() bits (MSB-first) select the
// path from the root.
type Key [chash.Size]byte

// KeyFromBytes derives a key by hashing arbitrary bytes, spreading keys
// uniformly across the address space.
func KeyFromBytes(b []byte) Key {
	return Key(chash.Sum(chash.DomainState, b))
}

// KeyFromString derives a key from a string identifier.
func KeyFromString(s string) Key {
	return KeyFromBytes([]byte(s))
}

// Bit returns bit i of the key, MSB-first.
func (k Key) Bit(i int) byte {
	return (k[i/8] >> (7 - i%8)) & 1
}

// Path returns the first depth bits of the key as a packed node-position
// path — the identifier proofs use for the key's leaf slot.
func (k Key) Path(depth int) Path {
	p := Path{n: uint16(depth)}
	whole := depth / 8
	copy(p.bits[:whole], k[:whole])
	for i := whole * 8; i < depth; i++ {
		if k.Bit(i) != 0 {
			p.bits[i/8] |= 1 << (7 - i%8)
		}
	}
	return p
}

// defaultAtHeight[h] is the digest of an empty subtree of height h (h = 0 is
// an empty leaf). The digest of an empty subtree depends only on its height,
// so one chain serves every tree depth: a depth-D tree's default at level l
// is defaultAtHeight[D-l]. Precomputed at init — 256 Node calls — so reads
// are lock-free and the old lazily-populated per-depth cache (a data race
// once proof verification went concurrent) is gone entirely.
var defaultAtHeight [MaxDepth + 1]chash.Hash

func init() {
	defaultAtHeight[0] = chash.Zero
	for h := 1; h <= MaxDepth; h++ {
		defaultAtHeight[h] = chash.Node(defaultAtHeight[h-1], defaultAtHeight[h-1])
	}
}

// defaultAt returns the empty-subtree digest at the given level of a
// depth-deep tree (level depth = leaves, level 0 = root).
func defaultAt(depth, level int) chash.Hash {
	return defaultAtHeight[depth-level]
}

type node struct {
	left, right *node
	hash        chash.Hash
}

// Tree is a mutable sparse Merkle tree. Leaves store value digests; callers
// keep the values themselves. Writing the zero digest deletes a leaf.
//
// Tree is not safe for concurrent use; wrap it if shared across goroutines.
type Tree struct {
	depth  int
	root   *node
	leaves map[Key]chash.Hash
}

// New creates an empty tree of the given depth.
func New(depth int) (*Tree, error) {
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("%w: %d", ErrBadDepth, depth)
	}
	return &Tree{
		depth:  depth,
		leaves: make(map[Key]chash.Hash),
	}, nil
}

// Depth returns the tree depth in bits.
func (t *Tree) Depth() int {
	return t.depth
}

// Len returns the number of non-empty leaves.
func (t *Tree) Len() int {
	return len(t.leaves)
}

// Root returns the current root digest.
func (t *Tree) Root() chash.Hash {
	if t.root == nil {
		return defaultAt(t.depth, 0)
	}
	return t.root.hash
}

// Get returns the value digest stored at key (chash.Zero if absent).
func (t *Tree) Get(key Key) chash.Hash {
	return t.leaves[key]
}

// Put stores a value digest at key. The zero digest removes the leaf.
func (t *Tree) Put(key Key, valueHash chash.Hash) {
	if valueHash.IsZero() {
		delete(t.leaves, key)
	} else {
		t.leaves[key] = valueHash
	}
	t.root = t.update(t.root, 0, key, valueHash)
}

// update rewrites the path for key at the given level, pruning empty subtrees.
func (t *Tree) update(n *node, level int, key Key, valueHash chash.Hash) *node {
	if level == t.depth {
		if valueHash.IsZero() {
			return nil
		}
		return &node{hash: valueHash}
	}
	if n == nil {
		if valueHash.IsZero() {
			return nil
		}
		n = &node{}
	}
	if key.Bit(level) == 0 {
		n.left = t.update(n.left, level+1, key, valueHash)
	} else {
		n.right = t.update(n.right, level+1, key, valueHash)
	}
	if n.left == nil && n.right == nil {
		return nil
	}
	n.hash = chash.Node(t.childHash(n.left, level+1), t.childHash(n.right, level+1))
	return n
}

func (t *Tree) childHash(n *node, level int) chash.Hash {
	if n == nil {
		return defaultAt(t.depth, level)
	}
	return n.hash
}

// Multiproof is a combined (non-)membership proof for a set of keys. It holds
// the digests of every maximal subtree that is off the union of the keys'
// paths and not an empty default.
type Multiproof struct {
	// Depth is the proven tree's depth.
	Depth int
	// Keys is the sorted set of proven keys.
	Keys []Key
	// Fills maps a node position (packed bit-path prefix) to its digest.
	// Positions absent from Fills are default (empty) subtrees.
	Fills map[Path]chash.Hash
}

// sortKeys returns a sorted, deduplicated copy of keys.
func sortKeys(keys []Key) []Key {
	uniq := make(map[Key]struct{}, len(keys))
	for _, k := range keys {
		uniq[k] = struct{}{}
	}
	out := make([]Key, 0, len(uniq))
	for k := range uniq {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out
}

// Prove builds a multiproof for the given keys (present or absent).
func (t *Tree) Prove(keys []Key) (*Multiproof, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("smt: proof over zero keys")
	}
	mp := &Multiproof{
		Depth: t.depth,
		Keys:  sortKeys(keys),
		Fills: make(map[Path]chash.Hash),
	}
	t.fill(t.root, 0, Path{}, mp.Keys, mp.Fills)
	return mp, nil
}

// fill walks the union of key paths and records off-path sibling digests.
func (t *Tree) fill(n *node, level int, prefix Path, keys []Key, fills map[Path]chash.Hash) {
	if len(keys) == 0 {
		// Off-path subtree: record its digest unless it is the default.
		if n != nil && n.hash != defaultAt(t.depth, level) {
			fills[prefix] = n.hash
		}
		return
	}
	if level == t.depth {
		return // leaf value supplied by the verifier
	}
	split := sort.Search(len(keys), func(i int) bool { return keys[i].Bit(level) == 1 })
	var left, right *node
	if n != nil {
		left, right = n.left, n.right
	}
	t.fill(left, level+1, prefix.Append(0), keys[:split], fills)
	t.fill(right, level+1, prefix.Append(1), keys[split:], fills)
}

// Verify checks the proof against root for the given key→digest assignment.
// Absent keys must map to chash.Zero. The assignment must cover exactly the
// proof's key set.
func (mp *Multiproof) Verify(root chash.Hash, values map[Key]chash.Hash) error {
	got, err := mp.ComputeRoot(values)
	if err != nil {
		return err
	}
	if got != root {
		return fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	return nil
}

// ComputeRoot recomputes the root implied by assigning the given value
// digests to the proof's keys. Calling it with the old values and comparing
// to the old root is verify_mht; calling it with new values is update.
func (mp *Multiproof) ComputeRoot(values map[Key]chash.Hash) (chash.Hash, error) {
	if mp.Depth < 1 || mp.Depth > MaxDepth {
		return chash.Zero, fmt.Errorf("%w: depth %d", ErrBadProof, mp.Depth)
	}
	if len(values) != len(mp.Keys) {
		return chash.Zero, fmt.Errorf("%w: %d values for %d keys", ErrKeyMismatch, len(values), len(mp.Keys))
	}
	for _, k := range mp.Keys {
		if _, ok := values[k]; !ok {
			return chash.Zero, fmt.Errorf("%w: missing value for key %x", ErrKeyMismatch, k[:4])
		}
	}
	return mp.computeNode(0, Path{}, mp.Keys, values), nil
}

func (mp *Multiproof) computeNode(level int, prefix Path, keys []Key, values map[Key]chash.Hash) chash.Hash {
	if len(keys) == 0 {
		if h, ok := mp.Fills[prefix]; ok {
			return h
		}
		return defaultAt(mp.Depth, level)
	}
	if level == mp.Depth {
		return values[keys[0]]
	}
	split := sort.Search(len(keys), func(i int) bool { return keys[i].Bit(level) == 1 })
	left := mp.computeNode(level+1, prefix.Append(0), keys[:split], values)
	right := mp.computeNode(level+1, prefix.Append(1), keys[split:], values)
	return chash.Node(left, right)
}

// UpdateRoot verifies the proof for oldValues against oldRoot, then returns
// the root implied by newValues. This is the enclave's
// "verify_mht + update" step done in one call.
func (mp *Multiproof) UpdateRoot(oldRoot chash.Hash, oldValues, newValues map[Key]chash.Hash) (chash.Hash, error) {
	if err := mp.Verify(oldRoot, oldValues); err != nil {
		return chash.Zero, err
	}
	return mp.ComputeRoot(newValues)
}

// EncodedSize returns the serialized size of the proof in bytes, used for the
// proof-size measurements in the evaluation.
func (mp *Multiproof) EncodedSize() int {
	size := 4 + len(mp.Keys)*chash.Size + 4
	for prefix := range mp.Fills {
		size += 4 + prefix.Len()/8 + 1 + chash.Size
	}
	return size
}

// Marshal serializes the multiproof. The wire format is unchanged from the
// string-position era ('0'/'1' position strings, sorted lexicographically),
// so proofs round-trip byte-identically across the packed-path rewrite.
func (mp *Multiproof) Marshal() []byte {
	e := chash.NewEncoder(mp.EncodedSize() + 64)
	e.PutUint32(uint32(mp.Depth))
	e.PutUint32(uint32(len(mp.Keys)))
	for _, k := range mp.Keys {
		e.PutBytes(k[:])
	}
	// Deterministic fill order: Path.Compare matches the lexicographic order
	// of the position strings the wire format carries.
	prefixes := make([]Path, 0, len(mp.Fills))
	for p := range mp.Fills {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Compare(prefixes[j]) < 0 })
	e.PutUint32(uint32(len(prefixes)))
	for _, p := range prefixes {
		e.PutString(p.String())
		e.PutHash(mp.Fills[p])
	}
	return e.Bytes()
}

// UnmarshalMultiproof parses a multiproof produced by Marshal.
func UnmarshalMultiproof(raw []byte) (*Multiproof, error) {
	d := chash.NewDecoder(raw)
	depth, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("smt: unmarshal proof: %w", err)
	}
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("%w: %d", ErrBadDepth, depth)
	}
	nKeys, err := d.Count(1<<20, 4+chash.Size)
	if err != nil {
		return nil, fmt.Errorf("smt: unmarshal proof keys: %w", err)
	}
	mp := &Multiproof{Depth: int(depth), Fills: make(map[Path]chash.Hash)}
	for range nKeys {
		kb, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("smt: unmarshal proof key: %w", err)
		}
		if len(kb) != chash.Size {
			return nil, fmt.Errorf("smt: unmarshal proof: key of %d bytes", len(kb))
		}
		var k Key
		copy(k[:], kb)
		mp.Keys = append(mp.Keys, k)
	}
	// A fill is at least its position's length prefix and its hash.
	nFills, err := d.Count(1<<22, 4+chash.Size)
	if err != nil {
		return nil, fmt.Errorf("smt: unmarshal proof fills: %w", err)
	}
	for range nFills {
		s, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("smt: unmarshal proof fill: %w", err)
		}
		if len(s) > int(depth) {
			return nil, fmt.Errorf("%w: fill position deeper than tree", ErrBadProof)
		}
		p, err := PathFromString(s)
		if err != nil {
			return nil, err
		}
		h, err := d.ReadHash()
		if err != nil {
			return nil, fmt.Errorf("smt: unmarshal proof fill: %w", err)
		}
		mp.Fills[p] = h
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("smt: unmarshal proof: %w", err)
	}
	mp.Keys = sortKeys(mp.Keys)
	return mp, nil
}
