package query

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dcert/internal/chash"
	"dcert/internal/workload"
)

// queryableRig builds a rig with a populated historical + keyword index.
func queryableRig(t testing.TB) (*rig, *TwoLevel, *TwoLevel) {
	t.Helper()
	r := newRig(t, workload.SmallBank)
	hist, err := NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	kw, err := NewKeywordIndex("kw")
	if err != nil {
		t.Fatalf("NewKeywordIndex: %v", err)
	}
	if err := r.sp.AddIndex(hist); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if err := r.sp.AddIndex(kw); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	r.advance(t, 8, 15)
	return r, hist, kw
}

func TestHistoricalResultWireRoundTrip(t *testing.T) {
	r, hist, _ := queryableRig(t)
	root, err := hist.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, hist)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}

	raw := res.Marshal()
	parsed, err := UnmarshalHistoricalResult(raw)
	if err != nil {
		t.Fatalf("UnmarshalHistoricalResult: %v", err)
	}
	if parsed.Key != res.Key || parsed.Lo != res.Lo || parsed.Hi != res.Hi {
		t.Fatal("window fields did not round-trip")
	}
	if len(parsed.Entries) != len(res.Entries) {
		t.Fatalf("entries %d != %d", len(parsed.Entries), len(res.Entries))
	}
	for i := range parsed.Entries {
		if parsed.Entries[i].Version != res.Entries[i].Version ||
			!bytes.Equal(parsed.Entries[i].Value, res.Entries[i].Value) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	// The deserialized result must still verify.
	if err := VerifyHistorical(root, parsed); err != nil {
		t.Fatalf("VerifyHistorical after round trip: %v", err)
	}
}

func TestHistoricalResultWireTamperDetected(t *testing.T) {
	r, hist, _ := queryableRig(t)
	root, err := hist.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, hist)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if len(res.Entries) == 0 {
		t.Skip("no entries")
	}
	raw := res.Marshal()
	// Corrupt one byte somewhere in the middle (entry values / proof bytes);
	// either decoding or verification must fail.
	raw[len(raw)/2] ^= 0x01
	parsed, err := UnmarshalHistoricalResult(raw)
	if err != nil {
		return // rejected at decode: fine
	}
	if err := VerifyHistorical(root, parsed); err == nil {
		t.Fatal("tampered wire bytes slipped through verification")
	}
}

func TestKeywordResultWireRoundTrip(t *testing.T) {
	r, _, kw := queryableRig(t)
	root, err := kw.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	res, err := r.sp.KeywordQuery("kw", []string{"deposit_check", workload.ContractName(workload.SmallBank, 0)})
	if err != nil {
		t.Fatalf("KeywordQuery: %v", err)
	}
	parsed, err := UnmarshalKeywordResult(res.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalKeywordResult: %v", err)
	}
	if len(parsed.Keywords) != 2 || len(parsed.Matches) != len(res.Matches) {
		t.Fatal("keyword result did not round-trip")
	}
	if err := VerifyKeyword(root, parsed); err != nil {
		t.Fatalf("VerifyKeyword after round trip: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalHistoricalResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error for garbage historical result")
	}
	if _, err := UnmarshalKeywordResult([]byte{0xff}); err == nil {
		t.Fatal("want error for garbage keyword result")
	}
	if _, err := UnmarshalRangeProof(nil); err == nil {
		t.Fatal("want error for empty range proof")
	}
}

func TestRangeProofMarshalMatchesEncodedSize(t *testing.T) {
	r, hist, _ := queryableRig(t)
	key := anyIndexedKey(t, hist)
	res, err := r.sp.HistoricalQuery("hist", key, 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	raw := res.Proof.Marshal()
	// EncodedSize is the sum of the component witness sizes; Marshal adds a
	// small fixed framing overhead.
	if len(raw) < res.Proof.EncodedSize() {
		t.Fatalf("Marshal (%d) smaller than EncodedSize (%d)", len(raw), res.Proof.EncodedSize())
	}
	if len(raw) > res.Proof.EncodedSize()+32 {
		t.Fatalf("framing overhead too large: %d vs %d", len(raw), res.Proof.EncodedSize())
	}
}

func TestAggregateQueries(t *testing.T) {
	r, hist, _ := queryableRig(t)
	root, err := hist.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	// SmallBank balances are uint64-encoded, so all operators apply.
	var key string
	for k, lower := range hist.lowers {
		if lower.Len() >= 2 {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no key with multiple versions")
	}
	for _, op := range []AggregateOp{AggCount, AggSum, AggMin, AggMax} {
		res, err := r.sp.AggregateQuery("hist", op, key, 0, 100)
		if err != nil {
			t.Fatalf("AggregateQuery(%s): %v", op, err)
		}
		if err := VerifyAggregate(root, res); err != nil {
			t.Fatalf("VerifyAggregate(%s): %v", op, err)
		}
		if op == AggCount && res.Value < 2 {
			t.Fatalf("COUNT = %d, want ≥2", res.Value)
		}
	}
}

func TestVerifyAggregateRejectsForgedValue(t *testing.T) {
	r, hist, _ := queryableRig(t)
	root, err := hist.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, hist)
	res, err := r.sp.AggregateQuery("hist", AggSum, key, 0, 100)
	if err != nil {
		t.Fatalf("AggregateQuery: %v", err)
	}
	res.Value += 1_000_000 // SP inflates the sum
	if err := VerifyAggregate(root, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("want ErrResultMismatch, got %v", err)
	}
}

func TestVerifyAggregateRejectsWindowMismatch(t *testing.T) {
	r, hist, _ := queryableRig(t)
	root, err := hist.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, hist)
	res, err := r.sp.AggregateQuery("hist", AggCount, key, 0, 100)
	if err != nil {
		t.Fatalf("AggregateQuery: %v", err)
	}
	res.Hi = 9999 // claim a wider window than the proof covers
	if err := VerifyAggregate(root, res); !errors.Is(err, ErrBadProof) {
		t.Fatalf("want ErrBadProof, got %v", err)
	}
}

func TestAggregateOpString(t *testing.T) {
	want := map[AggregateOp]string{AggCount: "COUNT", AggSum: "SUM", AggMin: "MIN", AggMax: "MAX"}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d.String() = %q", int(op), op.String())
		}
	}
}

// An answer whose entry count outruns its bytes is refused before anything
// is sized by that count: decoding a few bytes claiming 2^24 entries must
// allocate about what the bytes themselves are, not 2^24 entries.
func TestEntryCountBoundedByAnswerBytes(t *testing.T) {
	const lying = 1 << 24
	hist := chash.NewEncoder(32)
	hist.PutString("")    // key
	hist.PutUint64(0)     // lo
	hist.PutUint64(0)     // hi
	hist.PutUint32(lying) // entry count
	hist.PutByte(0)       // one byte of "entries"
	kw := chash.NewEncoder(32)
	kw.PutUint32(1)     // one conjunct
	kw.PutString("")    // keyword
	kw.PutUint32(lying) // entry count
	kw.PutByte(0)
	for _, tc := range []struct {
		name   string
		raw    []byte
		decode func([]byte) error
	}{
		{"historical", hist.Bytes(), func(b []byte) error { _, err := UnmarshalHistoricalResult(b); return err }},
		{"keyword", kw.Bytes(), func(b []byte) error { _, err := UnmarshalKeywordResult(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte answer claiming %d entries was accepted", tc.name, len(tc.raw), lying)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes", tc.name, len(tc.raw), got)
		}
	}
}
