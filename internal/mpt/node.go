// Package mpt implements a Merkle Patricia Trie in the style used by
// Ethereum's state and by the upper level of DCert's two-level query index
// (Fig. 5). Nodes are content-addressed by the hash of their canonical
// encoding, which makes witnesses (partial tries) self-verifying: a node can
// only resolve from a witness if its bytes hash to the reference stored in
// its parent.
//
// The package supports full in-memory tries (Get/Put/Delete/Hash), witness
// extraction for a set of keys, and stateless partial tries rebuilt from a
// root digest plus a witness — the mechanism the DCert enclave uses to
// validate read sets and recompute state roots without holding the state.
package mpt

import (
	"errors"
	"fmt"

	"dcert/internal/chash"
)

// Package errors.
var (
	// ErrMissingNode is returned by partial tries when an operation needs a
	// node that the witness does not contain.
	ErrMissingNode = errors.New("mpt: node not in witness")
	// ErrBadNode is returned when a node encoding is malformed.
	ErrBadNode = errors.New("mpt: malformed node encoding")
	// ErrEmptyValue is returned when storing an empty value (use Delete).
	ErrEmptyValue = errors.New("mpt: empty value not allowed")
)

// node is the interface implemented by all trie node kinds.
type node interface {
	// cachedHash returns the node hash and whether it is valid (not dirty).
	cachedHash() (chash.Hash, bool)
}

type (
	// hashNode is an unresolved reference to a node stored elsewhere.
	hashNode chash.Hash

	// leafNode terminates a key with a value.
	leafNode struct {
		path  []byte // remaining key nibbles
		value []byte
		hash  chash.Hash
		dirty bool
	}

	// extNode compresses a shared nibble run above a single child.
	extNode struct {
		path  []byte // shared nibbles, len >= 1
		child node
		hash  chash.Hash
		dirty bool
	}

	// branchNode fans out on the next nibble; value holds a key that ends
	// exactly at this node.
	branchNode struct {
		children [16]node
		value    []byte
		hash     chash.Hash
		dirty    bool
	}
)

func (n hashNode) cachedHash() (chash.Hash, bool)    { return chash.Hash(n), true }
func (n *leafNode) cachedHash() (chash.Hash, bool)   { return n.hash, !n.dirty }
func (n *extNode) cachedHash() (chash.Hash, bool)    { return n.hash, !n.dirty }
func (n *branchNode) cachedHash() (chash.Hash, bool) { return n.hash, !n.dirty }

// Node encoding tags.
const (
	tagLeaf   byte = 1
	tagExt    byte = 2
	tagBranch byte = 3
)

// keyToNibbles expands a key into one nibble per element (high first).
func keyToNibbles(key []byte) []byte {
	out := make([]byte, 0, 2*len(key))
	for _, b := range key {
		out = append(out, b>>4, b&0x0f)
	}
	return out
}

// packNibbles serializes a nibble slice: count byte(s) then packed pairs.
func packNibbles(e *chash.Encoder, nibbles []byte) {
	e.PutUint32(uint32(len(nibbles)))
	var cur byte
	for i, n := range nibbles {
		if i%2 == 0 {
			cur = n << 4
		} else {
			e.PutByte(cur | n)
		}
	}
	if len(nibbles)%2 == 1 {
		e.PutByte(cur)
	}
}

func unpackNibbles(d *chash.Decoder) ([]byte, error) {
	// Nibbles pack two to a byte: the run's limit alone bounds the count.
	count, err := d.Count(4096, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: nibble run: %v", ErrBadNode, err)
	}
	nBytes := (count + 1) / 2
	out := make([]byte, 0, count)
	for range nBytes {
		b, err := d.Byte()
		if err != nil {
			return nil, err
		}
		out = append(out, b>>4)
		if len(out) < count {
			out = append(out, b&0x0f)
		}
	}
	if len(out) != count {
		return nil, fmt.Errorf("%w: nibble count mismatch", ErrBadNode)
	}
	return out, nil
}

// encodeNode serializes a node. All child references must have valid cached
// hashes (callers hash bottom-up before encoding).
func encodeNode(n node) ([]byte, error) {
	e := chash.NewEncoder(64)
	switch v := n.(type) {
	case *leafNode:
		e.PutByte(tagLeaf)
		packNibbles(e, v.path)
		e.PutBytes(v.value)
	case *extNode:
		h, ok := v.child.cachedHash()
		if !ok {
			return nil, fmt.Errorf("mpt: encode ext with dirty child")
		}
		e.PutByte(tagExt)
		packNibbles(e, v.path)
		e.PutHash(h)
	case *branchNode:
		e.PutByte(tagBranch)
		var bitmap uint32
		for i, c := range v.children {
			if c != nil {
				bitmap |= 1 << uint(i)
			}
		}
		e.PutUint32(bitmap)
		for _, c := range v.children {
			if c == nil {
				continue
			}
			h, ok := c.cachedHash()
			if !ok {
				return nil, fmt.Errorf("mpt: encode branch with dirty child")
			}
			e.PutHash(h)
		}
		e.PutBytes(v.value)
	default:
		return nil, fmt.Errorf("mpt: encode unsupported node %T", n)
	}
	return e.Bytes(), nil
}

// decodeNode parses a node encoding. Children come back as hashNode
// references; the node is marked clean with the supplied hash.
func decodeNode(h chash.Hash, raw []byte) (node, error) {
	d := chash.NewDecoder(raw)
	tag, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
	}
	switch tag {
	case tagLeaf:
		path, err := unpackNibbles(d)
		if err != nil {
			return nil, fmt.Errorf("%w: leaf path: %v", ErrBadNode, err)
		}
		value, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: leaf value: %v", ErrBadNode, err)
		}
		if len(value) == 0 {
			return nil, fmt.Errorf("%w: leaf with empty value", ErrBadNode)
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
		}
		return &leafNode{path: path, value: value, hash: h}, nil
	case tagExt:
		path, err := unpackNibbles(d)
		if err != nil {
			return nil, fmt.Errorf("%w: ext path: %v", ErrBadNode, err)
		}
		if len(path) == 0 {
			return nil, fmt.Errorf("%w: ext with empty path", ErrBadNode)
		}
		child, err := d.ReadHash()
		if err != nil {
			return nil, fmt.Errorf("%w: ext child: %v", ErrBadNode, err)
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
		}
		return &extNode{path: path, child: hashNode(child), hash: h}, nil
	case tagBranch:
		bitmap, err := d.Uint32()
		if err != nil {
			return nil, fmt.Errorf("%w: branch bitmap: %v", ErrBadNode, err)
		}
		if bitmap > 0xffff {
			return nil, fmt.Errorf("%w: branch bitmap overflow", ErrBadNode)
		}
		b := &branchNode{hash: h}
		for i := 0; i < 16; i++ {
			if bitmap&(1<<uint(i)) == 0 {
				continue
			}
			ch, err := d.ReadHash()
			if err != nil {
				return nil, fmt.Errorf("%w: branch child: %v", ErrBadNode, err)
			}
			b.children[i] = hashNode(ch)
		}
		value, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: branch value: %v", ErrBadNode, err)
		}
		if len(value) > 0 {
			b.value = value
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadNode, err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrBadNode, tag)
	}
}

// commonPrefixLen returns the length of the shared prefix of a and b.
func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
