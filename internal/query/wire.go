package query

import (
	"fmt"
	"math"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/mbtree"
	"dcert/internal/mht"
	"dcert/internal/mpt"
)

// Wire formats for the SP ↔ client exchange (§5.3): query results and their
// proofs serialize to canonical bytes, so the service can run over any
// transport and the proof-size metrics of Fig. 11 are exact encoded sizes.

// Marshal serializes a range proof.
func (p *RangeProof) Marshal() []byte {
	upper := p.Upper.Marshal()
	var lower []byte
	if p.Lower != nil {
		lower = p.Lower.Marshal()
	}
	e := chash.NewEncoder(16 + len(upper) + len(lower))
	e.PutBytes(upper)
	e.PutBool(p.Lower != nil)
	if p.Lower != nil {
		e.PutBytes(lower)
	}
	return e.Bytes()
}

// UnmarshalRangeProof parses a range proof produced by Marshal.
func UnmarshalRangeProof(raw []byte) (*RangeProof, error) {
	d := chash.NewDecoder(raw)
	upperRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	upper, err := mpt.UnmarshalWitness(upperRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	p := &RangeProof{Upper: upper}
	hasLower, err := d.Bool()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	if hasLower {
		lowerRaw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
		}
		if p.Lower, err = mbtree.UnmarshalWitness(lowerRaw); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	return p, nil
}

// marshalEntries encodes an entry list.
func marshalEntries(e *chash.Encoder, entries []mbtree.Entry) {
	e.PutUint32(uint32(len(entries)))
	for _, ent := range entries {
		e.PutUint64(ent.Version)
		e.PutBytes(ent.Value)
	}
}

// entryMinSize is the fewest bytes one encoded entry takes: its version and
// its value's length prefix.
const entryMinSize = 8 + 4

// unmarshalEntries decodes an untrusted entry list.
func unmarshalEntries(d *chash.Decoder) ([]mbtree.Entry, error) {
	n, err := d.Count(1<<24, entryMinSize)
	if err != nil {
		return nil, fmt.Errorf("entry list: %w", err)
	}
	out := make([]mbtree.Entry, 0, n)
	for range n {
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		val, err := d.ReadBytes()
		if err != nil {
			return nil, err
		}
		out = append(out, mbtree.Entry{Version: v, Value: val})
	}
	return out, nil
}

// Marshal serializes a historical query result (entries + proof).
func (r *HistoricalResult) Marshal() []byte {
	proof := r.Proof.Marshal()
	e := chash.NewEncoder(64 + len(proof) + 48*len(r.Entries))
	e.PutString(r.Key)
	e.PutUint64(r.Lo)
	e.PutUint64(r.Hi)
	marshalEntries(e, r.Entries)
	e.PutBytes(proof)
	return e.Bytes()
}

// UnmarshalHistoricalResult parses a historical result.
func UnmarshalHistoricalResult(raw []byte) (*HistoricalResult, error) {
	d := chash.NewDecoder(raw)
	var r HistoricalResult
	var err error
	if r.Key, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("query: unmarshal result: %w", err)
	}
	if r.Lo, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("query: unmarshal result: %w", err)
	}
	if r.Hi, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("query: unmarshal result: %w", err)
	}
	if r.Entries, err = unmarshalEntries(d); err != nil {
		return nil, fmt.Errorf("query: unmarshal result: %w", err)
	}
	proofRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal result: %w", err)
	}
	if r.Proof, err = UnmarshalRangeProof(proofRaw); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal result: %w", err)
	}
	return &r, nil
}

// Marshal serializes a keyword query result.
func (r *KeywordResult) Marshal() []byte {
	e := chash.NewEncoder(1024)
	e.PutUint32(uint32(len(r.Keywords)))
	for i, kw := range r.Keywords {
		e.PutString(kw)
		marshalEntries(e, r.Lists[i])
		e.PutBytes(r.Proofs[i].Marshal())
	}
	e.PutUint32(uint32(len(r.Matches)))
	for _, m := range r.Matches {
		e.PutUint64(m.Version)
		e.PutHash(m.TxHash)
	}
	return e.Bytes()
}

// UnmarshalKeywordResult parses a keyword result.
func UnmarshalKeywordResult(raw []byte) (*KeywordResult, error) {
	d := chash.NewDecoder(raw)
	// A conjunct is at least its keyword's, entry list's and proof's
	// length prefixes.
	n, err := d.Count(64, 12)
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal keyword result: conjuncts: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("query: unmarshal keyword result: no conjuncts")
	}
	var r KeywordResult
	for range n {
		kw, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal keyword result: %w", err)
		}
		entries, err := unmarshalEntries(d)
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal keyword result: %w", err)
		}
		proofRaw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal keyword result: %w", err)
		}
		proof, err := UnmarshalRangeProof(proofRaw)
		if err != nil {
			return nil, err
		}
		r.Keywords = append(r.Keywords, kw)
		r.Lists = append(r.Lists, entries)
		r.Proofs = append(r.Proofs, proof)
	}
	m, err := d.Count(1<<24, 8+chash.Size)
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal keyword result: matches: %w", err)
	}
	for range m {
		v, err := d.Uint64()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal keyword result: %w", err)
		}
		h, err := d.ReadHash()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal keyword result: %w", err)
		}
		r.Matches = append(r.Matches, Posting{Version: v, TxHash: h})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal keyword result: %w", err)
	}
	return &r, nil
}

// MaxVersion is the upper bound used by whole-history queries.
const MaxVersion = uint64(math.MaxUint64)

// Marshal serializes a direct state read result.
func (r *StateResult) Marshal() []byte {
	proof := r.Proof.Marshal()
	e := chash.NewEncoder(64 + len(r.Key) + len(r.Value) + len(proof))
	e.PutString(r.Key)
	e.PutBool(r.Value != nil)
	if r.Value != nil {
		e.PutBytes(r.Value)
	}
	e.PutBytes(proof)
	return e.Bytes()
}

// UnmarshalStateResult parses a state result produced by Marshal.
func UnmarshalStateResult(raw []byte) (*StateResult, error) {
	d := chash.NewDecoder(raw)
	var r StateResult
	var err error
	if r.Key, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("query: unmarshal state result: %w", err)
	}
	present, err := d.Bool()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal state result: %w", err)
	}
	if present {
		if r.Value, err = d.ReadBytes(); err != nil {
			return nil, fmt.Errorf("query: unmarshal state result: %w", err)
		}
	}
	proofRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal state result: %w", err)
	}
	if r.Proof, err = mpt.UnmarshalWitness(proofRaw); err != nil {
		return nil, fmt.Errorf("query: unmarshal state result: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal state result: %w", err)
	}
	return &r, nil
}

// Marshal serializes a transaction-inclusion result.
func (r *TxResult) Marshal() []byte {
	tx := r.Tx.Marshal()
	proof := r.Proof.Marshal()
	e := chash.NewEncoder(64 + len(tx) + len(proof))
	e.PutHash(r.BlockHash)
	e.PutUint32(uint32(r.Index))
	e.PutBytes(tx)
	e.PutBytes(proof)
	return e.Bytes()
}

// UnmarshalTxResult parses a tx result produced by Marshal.
func UnmarshalTxResult(raw []byte) (*TxResult, error) {
	d := chash.NewDecoder(raw)
	var r TxResult
	var err error
	if r.BlockHash, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	idx, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	r.Index = int(idx)
	txRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	if r.Tx, err = chain.UnmarshalTransaction(txRaw); err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	proofRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	if r.Proof, err = mht.UnmarshalProof(proofRaw); err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal tx result: %w", err)
	}
	return &r, nil
}
