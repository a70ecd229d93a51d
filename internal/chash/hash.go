// Package chash provides the cryptographic primitives shared by every DCert
// module: domain-separated SHA-256 hashing, ECDSA P-256 signatures,
// canonical binary encoding helpers with the one bounded element count, and
// the CRC32C record frame shared by the wire and the storage log.
//
// All Merkle structures in this repository (MHT, SMT, MPT, MB-tree, skip
// list) hash through this package so that domain separation is applied
// uniformly and hash-collision assumptions are centralized.
package chash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the byte length of every digest used in DCert.
const Size = sha256.Size

// Hash is a fixed-size SHA-256 digest.
type Hash [Size]byte

// Zero is the all-zero hash, used as the digest of empty subtrees and as a
// nil sentinel in Merkle structures.
var Zero Hash

// Domain tags keep hashes of different structures from colliding with each
// other (e.g. a Merkle leaf can never be reinterpreted as an interior node).
type Domain byte

// Domain separation tags. Start at one so that the zero value is invalid.
const (
	DomainLeaf Domain = iota + 1
	DomainNode
	DomainHeader
	DomainTx
	DomainState
	DomainCert
	DomainQuote
	DomainReport
	DomainIndex
	DomainConsensus
)

// String implements fmt.Stringer for diagnostics.
func (d Domain) String() string {
	switch d {
	case DomainLeaf:
		return "leaf"
	case DomainNode:
		return "node"
	case DomainHeader:
		return "header"
	case DomainTx:
		return "tx"
	case DomainState:
		return "state"
	case DomainCert:
		return "cert"
	case DomainQuote:
		return "quote"
	case DomainReport:
		return "report"
	case DomainIndex:
		return "index"
	case DomainConsensus:
		return "consensus"
	default:
		return fmt.Sprintf("domain(%d)", byte(d))
	}
}

// Sum hashes the concatenation of the given byte slices under the domain tag.
// Parts are concatenated with no per-part framing; callers needing injective
// encodings length-prefix through Encoder first. The steady state allocates
// nothing: see engine.go.
func Sum(d Domain, parts ...[]byte) Hash {
	if len(parts) == 1 {
		return sumOne(d, parts[0])
	}
	return sumParts(d, parts...)
}

// SumBytes hashes a single byte slice with no domain tag. It exists for
// interoperability points where the exact preimage matters (e.g. content
// addressing of raw payloads).
func SumBytes(b []byte) Hash {
	return sha256.Sum256(b)
}

// Leaf hashes a leaf payload.
func Leaf(payload []byte) Hash {
	return sumOne(DomainLeaf, payload)
}

// Node hashes two child digests into an interior-node digest
// (h = H(left || right), Fig. 1 of the paper). This is the Merkle inner loop
// — one stack buffer, one single-shot compression, zero allocations.
func Node(left, right Hash) Hash {
	var buf [1 + 2*Size]byte
	buf[0] = byte(DomainNode)
	copy(buf[1:1+Size], left[:])
	copy(buf[1+Size:], right[:])
	return sha256.Sum256(buf[:])
}

// IsZero reports whether the hash is the all-zero sentinel.
func (h Hash) IsZero() bool {
	return h == Zero
}

// Bytes returns the digest as a freshly allocated byte slice.
func (h Hash) Bytes() []byte {
	out := make([]byte, Size)
	copy(out, h[:])
	return out
}

// Hex returns the full lowercase hex encoding of the digest.
func (h Hash) Hex() string {
	return hex.EncodeToString(h[:])
}

// String returns an abbreviated hex form for logs.
func (h Hash) String() string {
	return hex.EncodeToString(h[:6]) + "…"
}

// FromBytes converts a byte slice to a Hash, erroring on length mismatch.
func FromBytes(b []byte) (Hash, error) {
	if len(b) != Size {
		return Zero, fmt.Errorf("chash: digest must be %d bytes, got %d", Size, len(b))
	}
	var h Hash
	copy(h[:], b)
	return h, nil
}

// FromHex parses a full hex-encoded digest.
func FromHex(s string) (Hash, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("chash: parse hex digest: %w", err)
	}
	return FromBytes(b)
}

// Uint64Bytes encodes v in big-endian order. Canonical integer encoding for
// everything that gets hashed (heights, timestamps, nonces).
func Uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Uint32Bytes encodes v in big-endian order.
func Uint32Bytes(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}
