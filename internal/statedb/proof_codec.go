package statedb

import (
	"fmt"
	"math"
	"sort"

	"dcert/internal/chash"
	"dcert/internal/mpt"
	"dcert/internal/smt"
)

// UpdateProof wire format. In a deployed DCert the update proof π crosses a
// trust boundary — it is marshalled from the untrusted host into the enclave
// — so it needs a canonical byte encoding, and that encoding is fuzzed (the
// pipeline's prepare/commit boundary must never turn attacker-shaped proof
// bytes into a certificate for a state transition that does not replay).
//
// Layout: kind byte, then the read set as sorted ⟨key, present, value⟩
// triples, then the backend witness (MPT node witness, or SMT multiproof
// plus the prior-value set). The present flag distinguishes a key proven
// absent (nil) from an empty value — the two hash differently.

// MarshalUpdateProof serializes an update proof canonically.
func MarshalUpdateProof(p *UpdateProof) []byte {
	e := chash.NewEncoder(256 + p.EncodedSize())
	e.PutByte(byte(p.Kind))
	putValueMap(e, p.ReadSet)
	if p.Kind == BackendSMT {
		e.PutBytes(p.SMT.Marshal())
		putValueMap(e, p.Prior)
		return e.Bytes()
	}
	e.PutBytes(p.Witness.Marshal())
	return e.Bytes()
}

// UnmarshalUpdateProof parses a proof produced by MarshalUpdateProof. The
// result is structurally well-formed but entirely untrusted — replay
// verification decides whether it proves anything.
func UnmarshalUpdateProof(raw []byte) (*UpdateProof, error) {
	d := chash.NewDecoder(raw)
	kindByte, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("statedb: unmarshal proof: %w", err)
	}
	kind := BackendKind(kindByte)
	if kind != BackendMPT && kind != BackendSMT {
		return nil, fmt.Errorf("statedb: unmarshal proof: unknown backend %d", kindByte)
	}
	p := &UpdateProof{Kind: kind}
	if p.ReadSet, err = readValueMap(d); err != nil {
		return nil, fmt.Errorf("statedb: unmarshal proof: read set: %w", err)
	}
	if kind == BackendSMT {
		rawProof, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("statedb: unmarshal proof: %w", err)
		}
		if p.SMT, err = smt.UnmarshalMultiproof(rawProof); err != nil {
			return nil, fmt.Errorf("statedb: unmarshal proof: %w", err)
		}
		if p.Prior, err = readValueMap(d); err != nil {
			return nil, fmt.Errorf("statedb: unmarshal proof: prior set: %w", err)
		}
	} else {
		rawWitness, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("statedb: unmarshal proof: %w", err)
		}
		if p.Witness, err = mpt.UnmarshalWitness(rawWitness); err != nil {
			return nil, fmt.Errorf("statedb: unmarshal proof: %w", err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("statedb: unmarshal proof: %w", err)
	}
	return p, nil
}

// putValueMap encodes a key→value map with nil-awareness in sorted key order.
func putValueMap(e *chash.Encoder, m map[string][]byte) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		v := m[k]
		e.PutBool(v != nil)
		e.PutBytes(v)
	}
}

func readValueMap(d *chash.Decoder) (map[string][]byte, error) {
	// An entry is at least its key's and value's length prefixes and its
	// presence byte.
	n, err := d.Count(math.MaxInt, 9)
	if err != nil {
		return nil, fmt.Errorf("statedb: value map: %w", err)
	}
	m := make(map[string][]byte, n)
	for range n {
		k, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		present, err := d.Bool()
		if err != nil {
			return nil, err
		}
		v, err := d.ReadBytes()
		if err != nil {
			return nil, err
		}
		if !present {
			if len(v) != 0 {
				return nil, fmt.Errorf("absent key %q carries a value", k)
			}
			v = nil
		}
		m[k] = v
	}
	return m, nil
}
