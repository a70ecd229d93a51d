// Package mht implements the static binary Merkle Hash Tree from Fig. 1 of
// the DCert paper. It is used for the per-block transaction root (H_tx) and
// anywhere an ordered list of items needs a compact commitment with
// membership proofs.
//
// The tree is built bottom-up over the leaf digests; an odd node at any level
// is paired with the zero hash so that the shape is deterministic for any
// leaf count. Single-leaf proofs return the sibling path (as in the paper's
// S2 example: {h1, h6}); multiproofs return the minimal set of subtree
// digests needed to recompute the root for a set of leaves.
package mht

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dcert/internal/chash"
)

// Package errors.
var (
	// ErrEmptyTree is returned when constructing or proving over zero leaves.
	ErrEmptyTree = errors.New("mht: tree has no leaves")
	// ErrIndexRange is returned when a leaf index is out of range.
	ErrIndexRange = errors.New("mht: leaf index out of range")
	// ErrBadProof is returned when a proof fails verification.
	ErrBadProof = errors.New("mht: proof verification failed")
)

// Tree is an immutable binary Merkle tree over a list of leaf payloads.
type Tree struct {
	// levels[0] is the leaf level; levels[len-1] has exactly one digest, the root.
	levels [][]chash.Hash
	n      int
}

// parallelBuildMin is the smallest level width worth fanning out across
// cores: below it, goroutine overhead beats the hashing saved. Block-sized
// transaction lists (hundreds to thousands of leaves) clear it comfortably.
const parallelBuildMin = 512

// forEachChunk runs fn over [0, n) — sequentially for small n or single-core
// hosts, otherwise split into one contiguous chunk per core. Every output
// index is written by exactly one invocation, so the result is deterministic
// regardless of scheduling.
func forEachChunk(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelBuildMin || workers < 2 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Build constructs a tree over the given leaf payloads. Leaf digesting fans
// out across cores for block-sized inputs.
func Build(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	digests := make([]chash.Hash, len(leaves))
	forEachChunk(len(leaves), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			digests[i] = chash.Leaf(leaves[i])
		}
	})
	return BuildFromDigests(digests)
}

// BuildFromDigests constructs a tree over pre-hashed leaf digests. Each
// level's reduction is independent per output index, so wide levels are
// combined in parallel; the digests are byte-identical to a sequential
// build.
func BuildFromDigests(digests []chash.Hash) (*Tree, error) {
	if len(digests) == 0 {
		return nil, ErrEmptyTree
	}
	level := make([]chash.Hash, len(digests))
	copy(level, digests)

	levels := [][]chash.Hash{level}
	for len(level) > 1 {
		next := make([]chash.Hash, (len(level)+1)/2)
		prev := level
		forEachChunk(len(next), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				left := prev[2*i]
				right := chash.Zero
				if 2*i+1 < len(prev) {
					right = prev[2*i+1]
				}
				next[i] = chash.Node(left, right)
			}
		})
		levels = append(levels, next)
		level = next
	}
	return &Tree{levels: levels, n: len(digests)}, nil
}

// Root returns the root digest.
func (t *Tree) Root() chash.Hash {
	return t.levels[len(t.levels)-1][0]
}

// Len returns the number of leaves.
func (t *Tree) Len() int {
	return t.n
}

// LeafDigest returns the digest of leaf i.
func (t *Tree) LeafDigest(i int) (chash.Hash, error) {
	if i < 0 || i >= t.n {
		return chash.Zero, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, t.n)
	}
	return t.levels[0][i], nil
}

// Proof is a single-leaf membership proof: the sibling digest at each level
// from the leaf up to (excluding) the root.
type Proof struct {
	// Index is the leaf position the proof is for.
	Index int
	// Leaves is the total leaf count of the tree, fixing its shape.
	Leaves int
	// Siblings holds one digest per tree level, bottom-up.
	Siblings []chash.Hash
}

// Prove returns the membership proof for leaf i.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, t.n)
	}
	siblings := make([]chash.Hash, 0, len(t.levels)-1)
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		sib := idx ^ 1
		s := chash.Zero
		if sib < len(t.levels[lvl]) {
			s = t.levels[lvl][sib]
		}
		siblings = append(siblings, s)
		idx /= 2
	}
	return &Proof{Index: i, Leaves: t.n, Siblings: siblings}, nil
}

// Verify checks the proof for the given leaf payload against root.
func (p *Proof) Verify(root chash.Hash, leaf []byte) error {
	return p.VerifyDigest(root, chash.Leaf(leaf))
}

// VerifyDigest checks the proof for a pre-hashed leaf digest against root.
func (p *Proof) VerifyDigest(root chash.Hash, digest chash.Hash) error {
	if p.Leaves <= 0 || p.Index < 0 || p.Index >= p.Leaves {
		return fmt.Errorf("%w: index %d of %d", ErrBadProof, p.Index, p.Leaves)
	}
	if want := treeHeight(p.Leaves); len(p.Siblings) != want {
		return fmt.Errorf("%w: %d siblings, want %d", ErrBadProof, len(p.Siblings), want)
	}
	cur := digest
	idx := p.Index
	for _, sib := range p.Siblings {
		if idx%2 == 0 {
			cur = chash.Node(cur, sib)
		} else {
			cur = chash.Node(sib, cur)
		}
		idx /= 2
	}
	if cur != root {
		return fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	return nil
}

// treeHeight returns the number of interior levels for n leaves.
func treeHeight(n int) int {
	h := 0
	for l := n; l > 1; l = (l + 1) / 2 {
		h++
	}
	return h
}

// MultiProof proves membership of a set of leaves with the minimal digest
// set: for every tree node that is an ancestor-sibling of the proven leaves
// and not derivable from them, its digest is included.
type MultiProof struct {
	// Leaves is the total leaf count of the tree.
	Leaves int
	// Indices are the proven leaf positions, sorted ascending.
	Indices []int
	// Fills maps (level, index) positions to their digests.
	Fills map[NodePos]chash.Hash
}

// NodePos addresses a node inside the tree: Level 0 is the leaf level.
type NodePos struct {
	Level int
	Index int
}

// ProveMulti returns a combined proof for the given leaf indices.
// Duplicate indices are coalesced.
func (t *Tree) ProveMulti(indices []int) (*MultiProof, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("mht: multiproof over zero indices")
	}
	uniq := make(map[int]struct{}, len(indices))
	for _, i := range indices {
		if i < 0 || i >= t.n {
			return nil, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, t.n)
		}
		uniq[i] = struct{}{}
	}
	sorted := make([]int, 0, len(uniq))
	for i := range uniq {
		sorted = append(sorted, i)
	}
	sort.Ints(sorted)

	fills := make(map[NodePos]chash.Hash)
	known := make(map[int]struct{}, len(sorted))
	for _, i := range sorted {
		known[i] = struct{}{}
	}
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		next := make(map[int]struct{}, len(known))
		for idx := range known {
			next[idx/2] = struct{}{}
		}
		// For every parent we will compute, both children must be available:
		// either known (computed from below) or supplied as a fill.
		for parent := range next {
			for _, child := range []int{2 * parent, 2*parent + 1} {
				if _, ok := known[child]; ok {
					continue
				}
				pos := NodePos{Level: lvl, Index: child}
				if child >= len(t.levels[lvl]) {
					fills[pos] = chash.Zero
					continue
				}
				fills[pos] = t.levels[lvl][child]
			}
		}
		known = next
	}
	return &MultiProof{Leaves: t.n, Indices: sorted, Fills: fills}, nil
}

// Verify checks that the given index→digest assignment hashes up to root.
// digests must contain exactly the proof's indices.
func (mp *MultiProof) Verify(root chash.Hash, digests map[int]chash.Hash) error {
	got, err := mp.computeRoot(digests)
	if err != nil {
		return err
	}
	if got != root {
		return fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	return nil
}

func (mp *MultiProof) computeRoot(digests map[int]chash.Hash) (chash.Hash, error) {
	if mp.Leaves <= 0 {
		return chash.Zero, fmt.Errorf("%w: empty tree", ErrBadProof)
	}
	if len(digests) != len(mp.Indices) {
		return chash.Zero, fmt.Errorf("%w: %d digests for %d indices", ErrBadProof, len(digests), len(mp.Indices))
	}
	known := make(map[int]chash.Hash, len(digests))
	for _, i := range mp.Indices {
		d, ok := digests[i]
		if !ok {
			return chash.Zero, fmt.Errorf("%w: missing digest for index %d", ErrBadProof, i)
		}
		if i < 0 || i >= mp.Leaves {
			return chash.Zero, fmt.Errorf("%w: index %d of %d", ErrBadProof, i, mp.Leaves)
		}
		known[i] = d
	}

	width := mp.Leaves
	for lvl := 0; width > 1; lvl++ {
		parents := make(map[int]chash.Hash, (len(known)+1)/2)
		parentSet := make(map[int]struct{}, len(known))
		for idx := range known {
			parentSet[idx/2] = struct{}{}
		}
		for parent := range parentSet {
			var child [2]chash.Hash
			for k := 0; k < 2; k++ {
				ci := 2*parent + k
				if d, ok := known[ci]; ok {
					child[k] = d
					continue
				}
				d, ok := mp.Fills[NodePos{Level: lvl, Index: ci}]
				if !ok {
					if ci >= width {
						d = chash.Zero
					} else {
						return chash.Zero, fmt.Errorf("%w: missing fill at level %d index %d", ErrBadProof, lvl, ci)
					}
				}
				child[k] = d
			}
			parents[parent] = chash.Node(child[0], child[1])
		}
		known = parents
		width = (width + 1) / 2
	}
	rootDigest, ok := known[0]
	if !ok {
		return chash.Zero, fmt.Errorf("%w: root not derivable", ErrBadProof)
	}
	return rootDigest, nil
}

// Marshal serializes a single-leaf proof.
func (p *Proof) Marshal() []byte {
	e := chash.NewEncoder(16 + len(p.Siblings)*chash.Size)
	e.PutUint32(uint32(p.Index))
	e.PutUint32(uint32(p.Leaves))
	e.PutUint32(uint32(len(p.Siblings)))
	for _, s := range p.Siblings {
		e.PutHash(s)
	}
	return e.Bytes()
}

// UnmarshalProof parses a proof produced by Marshal.
func UnmarshalProof(raw []byte) (*Proof, error) {
	d := chash.NewDecoder(raw)
	idx, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("mht: unmarshal proof: %w", err)
	}
	leaves, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("mht: unmarshal proof: %w", err)
	}
	n, err := d.Count(64, chash.Size)
	if err != nil {
		return nil, fmt.Errorf("%w: siblings: %v", ErrBadProof, err)
	}
	p := &Proof{Index: int(idx), Leaves: int(leaves), Siblings: make([]chash.Hash, 0, n)}
	for range n {
		h, err := d.ReadHash()
		if err != nil {
			return nil, fmt.Errorf("mht: unmarshal proof: %w", err)
		}
		p.Siblings = append(p.Siblings, h)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("mht: unmarshal proof: %w", err)
	}
	return p, nil
}

// EncodedSize returns the serialized proof size in bytes.
func (p *Proof) EncodedSize() int {
	return 12 + len(p.Siblings)*chash.Size
}
