package query

import (
	"bytes"
	"fmt"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/mpt"
)

// Batched multi-key state queries: K keys travel in one request and come
// back with ONE merged multiproof — a single witness holding the union of
// every key's MPT path. Shared upper nodes (the root and the top of the
// trie, which every path crosses) appear once, so the batch proof is
// strictly smaller than K single-key proofs and the client pays one round
// trip and one witness decode instead of K. A K=1 batch carries exactly the
// same witness bytes a single-key StateQuery would (both are the key's path
// witness), so single-key stays the degenerate case of the batch path.

// BatchStateResult is a proven multi-key state read at the tip.
type BatchStateResult struct {
	// Keys are the queried state keys, in request order.
	Keys []string
	// Values are the claimed values, aligned with Keys (nil = proven
	// absent).
	Values [][]byte
	// Proof is the merged multiproof: one witness covering every key's path
	// against the header's state root.
	Proof *mpt.Witness
}

// EncodedSize returns the merged proof size in bytes.
func (r *BatchStateResult) EncodedSize() int {
	return r.Proof.EncodedSize()
}

// Marshal serializes a batch state result.
func (r *BatchStateResult) Marshal() []byte {
	proof := r.Proof.Marshal()
	e := chash.NewEncoder(64 + len(proof) + 32*len(r.Keys))
	e.PutUint32(uint32(len(r.Keys)))
	for i, k := range r.Keys {
		e.PutString(k)
		e.PutBool(r.Values[i] != nil)
		if r.Values[i] != nil {
			e.PutBytes(r.Values[i])
		}
	}
	e.PutBytes(proof)
	return e.Bytes()
}

// UnmarshalBatchStateResult parses a batch state result.
func UnmarshalBatchStateResult(raw []byte) (*BatchStateResult, error) {
	d := chash.NewDecoder(raw)
	// A key is at least its length prefix and its presence byte.
	n, err := d.Count(MaxBatchKeys, 5)
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal batch result keys: %w", err)
	}
	r := &BatchStateResult{
		Keys:   make([]string, 0, n),
		Values: make([][]byte, 0, n),
	}
	for range n {
		k, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal batch result: %w", err)
		}
		present, err := d.Bool()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal batch result: %w", err)
		}
		var v []byte
		if present {
			if v, err = d.ReadBytes(); err != nil {
				return nil, fmt.Errorf("query: unmarshal batch result: %w", err)
			}
		}
		r.Keys = append(r.Keys, k)
		r.Values = append(r.Values, v)
	}
	proofRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal batch result: %w", err)
	}
	if r.Proof, err = mpt.UnmarshalWitness(proofRaw); err != nil {
		return nil, fmt.Errorf("query: unmarshal batch result: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal batch result: %w", err)
	}
	return r, nil
}

// BatchStateQuery answers a multi-key direct state read with one merged
// multiproof against the SP's current tip state.
func (sp *ServiceProvider) BatchStateQuery(keys []string) (*BatchStateResult, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("query: empty batch query")
	}
	if len(keys) > MaxBatchKeys {
		return nil, fmt.Errorf("query: batch of %d keys exceeds limit %d", len(keys), MaxBatchKeys)
	}
	res := &BatchStateResult{Keys: keys, Values: make([][]byte, len(keys))}
	raw := make([][]byte, len(keys))
	for i, k := range keys {
		raw[i] = []byte(k)
		v, err := sp.node.State().Get(raw[i])
		if err != nil {
			return nil, err
		}
		res.Values[i] = v
	}
	proof, err := sp.node.State().ProveKeys(raw)
	if err != nil {
		return nil, fmt.Errorf("query: batch state proof: %w", err)
	}
	res.Proof = proof
	return res, nil
}

// VerifyBatchState validates a multi-key state read against a certified
// header's state root: every key is replayed through the one merged witness,
// and each proven value must match the claim (nil claims are absence
// proofs).
func VerifyBatchState(hdr *chain.Header, res *BatchStateResult) error {
	if res == nil || res.Proof == nil {
		return fmt.Errorf("%w: missing batch proof", ErrBadProof)
	}
	if len(res.Keys) == 0 || len(res.Values) != len(res.Keys) {
		return fmt.Errorf("%w: malformed batch result", ErrBadProof)
	}
	// One partial trie re-used across keys: the witness is decoded and its
	// nodes verified once, each key then walks its path.
	pt := mpt.NewPartial(hdr.StateRoot, res.Proof)
	for i, k := range res.Keys {
		got, err := pt.Get([]byte(k))
		if err != nil {
			return fmt.Errorf("%w: key %q: %v", ErrBadProof, k, err)
		}
		if !bytes.Equal(got, res.Values[i]) {
			return fmt.Errorf("%w: value for key %q", ErrResultMismatch, k)
		}
	}
	return nil
}
