package query

import (
	"bytes"
	"testing"

	"dcert/internal/chash"
	"dcert/internal/mbtree"
	"dcert/internal/mpt"
)

// Fuzz targets for the query wire codecs: the decoders face untrusted network
// bytes, so they must never panic, and anything they accept must re-encode
// canonically (decode → marshal → decode is a fixed point).

func FuzzUnmarshalBatchStateResult(f *testing.F) {
	// Seed with a genuine encoding so the fuzzer starts near the format.
	tr := mpt.New()
	for _, kv := range [][2]string{{"a", "1"}, {"ab", "2"}, {"abc", "3"}} {
		if err := tr.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			f.Fatalf("Put: %v", err)
		}
	}
	if _, err := tr.Hash(); err != nil {
		f.Fatalf("Hash: %v", err)
	}
	w, err := tr.WitnessForKeys([][]byte{[]byte("a"), []byte("abc"), []byte("zz")})
	if err != nil {
		f.Fatalf("WitnessForKeys: %v", err)
	}
	seed := &BatchStateResult{
		Keys:   []string{"a", "abc", "zz"},
		Values: [][]byte{[]byte("1"), []byte("3"), nil},
		Proof:  w,
	}
	f.Add(seed.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, raw []byte) {
		res, err := UnmarshalBatchStateResult(raw)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		re := res.Marshal()
		again, err := UnmarshalBatchStateResult(re)
		if err != nil {
			t.Fatalf("accepted bytes failed to re-decode: %v", err)
		}
		if !bytes.Equal(re, again.Marshal()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

func FuzzUnmarshalRequest(f *testing.F) {
	f.Add((&Request{ID: 1, Kind: reqState, Key: "k"}).Marshal())
	f.Add(NewBatchStateRequest([]string{"a", "b"}).Marshal())
	f.Add((&Request{ID: 2, Kind: reqKeyword, Index: "kw", Keywords: []string{"x"}}).Marshal())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := UnmarshalRequest(raw)
		if err != nil {
			return
		}
		re := req.Marshal()
		if !bytes.Equal(raw, re) {
			// The codec is canonical: any accepted encoding is exactly what
			// Marshal would produce.
			t.Fatalf("accepted non-canonical request encoding:\n in  %x\n out %x", raw, re)
		}
	})
}

// reencode pairs a decoder with its value's encoder: decode, then marshal.
func reencode[T interface{ Marshal() []byte }](decode func([]byte) (T, error)) func([]byte) ([]byte, error) {
	return func(raw []byte) ([]byte, error) {
		v, err := decode(raw)
		if err != nil {
			return nil, err
		}
		return v.Marshal(), nil
	}
}

// answerDecoders are what a client runs on an SP's answer bytes.
var answerDecoders = []func([]byte) ([]byte, error){
	reencode(UnmarshalResponse),
	reencode(UnmarshalStateResult),
	reencode(UnmarshalHistoricalResult),
	reencode(UnmarshalKeywordResult),
	reencode(UnmarshalTxResult),
	reencode(UnmarshalRangeProof),
}

// FuzzClientAnswerDecoders: the first byte picks one of answerDecoders, the
// rest is the answer. A lying SP controls every byte, so each decoder must
// refuse the input or decode a value whose encoding decodes back to itself.
func FuzzClientAnswerDecoders(f *testing.F) {
	r, hist, _ := queryableRig(f)
	key := anyIndexedKey(f, hist)
	hres, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		f.Fatalf("HistoricalQuery: %v", err)
	}
	kres, err := r.sp.KeywordQuery("kw", []string{"deposit_check"})
	if err != nil {
		f.Fatalf("KeywordQuery: %v", err)
	}
	sres, err := r.sp.StateQuery(key)
	if err != nil {
		f.Fatalf("StateQuery: %v", err)
	}
	tres, err := r.sp.TxQuery(r.sp.Node().Tip().Hash(), 0)
	if err != nil {
		f.Fatalf("TxQuery: %v", err)
	}
	seeds := [][]byte{
		HandleRaw(r.sp, NewHistoricalRequest("hist", key, 0, 100).Marshal()),
		sres.Marshal(),
		hres.Marshal(),
		kres.Marshal(),
		tres.Marshal(),
		hres.Proof.Marshal(),
	}
	for sel, raw := range seeds {
		if _, err := answerDecoders[sel](raw); err != nil {
			f.Fatalf("honest seed %d refused: %v", sel, err)
		}
		f.Add(append([]byte{byte(sel)}, raw...))
	}
	f.Add([]byte{2, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		sel := int(in[0]) % len(answerDecoders)
		decode := answerDecoders[sel]
		re, err := decode(in[1:])
		if err != nil {
			return // refusing is fine; panicking or over-allocating is not
		}
		again, err := decode(re)
		if err != nil {
			t.Fatalf("decoder %d: the re-encoding of an accepted answer fails to decode: %v", sel, err)
		}
		if !bytes.Equal(re, again) {
			t.Fatalf("decoder %d: the re-encoding is not a fixed point", sel)
		}
	})
}

// FuzzDecodeUpdateWitness drives the decoder the trusted program runs first
// on a host-supplied index witness (TwoLevel.Replay): every input must fail
// or round-trip, and decoding may allocate only in proportion to the bytes.
func FuzzDecodeUpdateWitness(f *testing.F) {
	tr := mpt.New()
	for _, k := range []string{"a", "ab", "b"} {
		if err := tr.Put([]byte(k), chash.Zero[:]); err != nil {
			f.Fatalf("Put: %v", err)
		}
	}
	upper, err := tr.WitnessForKeys([][]byte{[]byte("a"), []byte("c")})
	if err != nil {
		f.Fatalf("WitnessForKeys: %v", err)
	}
	lower, err := mbtree.New(LowerOrder)
	if err != nil {
		f.Fatalf("mbtree.New: %v", err)
	}
	for v := uint64(1); v <= 8; v++ {
		if err := lower.Insert(v, []byte{byte(v)}); err != nil {
			f.Fatalf("Insert: %v", err)
		}
	}
	lw, err := lower.WitnessForInsert([]uint64{9})
	if err != nil {
		f.Fatalf("WitnessForInsert: %v", err)
	}
	f.Add(encodeUpdateWitness(upper, map[string]*mbtree.Witness{"a": lw, "c": mbtree.NewWitness()}))
	lying := chash.NewEncoder(12)
	lying.PutBytes(mpt.NewWitness().Marshal())
	lying.PutUint32(1 << 20)
	f.Add(lying.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		var (
			upper  *mpt.Witness
			lowers map[string]*mbtree.Witness
			err    error
		)
		if got := allocsOf(func() { upper, lowers, err = decodeUpdateWitness(raw) }); got > updateWitnessAllocBound(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), got)
		}
		if err != nil {
			return
		}
		re := encodeUpdateWitness(upper, lowers)
		upper2, lowers2, err := decodeUpdateWitness(re)
		if err != nil {
			t.Fatalf("accepted witness failed to re-decode: %v", err)
		}
		if !bytes.Equal(re, encodeUpdateWitness(upper2, lowers2)) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
