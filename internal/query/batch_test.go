package query

import (
	"bytes"
	"errors"
	"testing"

	"dcert/internal/workload"
)

// writtenKeys probes the KV workload's key space for keys that exist in
// state, returning up to max of them.
func writtenKeys(t *testing.T, r *rig, max int) []string {
	t.Helper()
	var keys []string
	for i := 0; i < 200 && len(keys) < max; i++ {
		probe := "ct/" + workload.ContractName(workload.KVStore, 0) + "/kv/user-key-" + itoa(i)
		v, err := r.sp.Node().State().Get([]byte(probe))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if v != nil {
			keys = append(keys, probe)
		}
	}
	if len(keys) == 0 {
		t.Skip("no written keys found")
	}
	return keys
}

func TestBatchStateQueryRoundTrip(t *testing.T) {
	r := newRig(t, workload.KVStore)
	r.advance(t, 6, 15)
	tip := r.sp.Node().Tip()

	keys := writtenKeys(t, r, 6)
	// Mix in absent keys: the merged proof must prove absence too.
	keys = append(keys, "never-written-a", "never-written-b")

	res, err := r.sp.BatchStateQuery(keys)
	if err != nil {
		t.Fatalf("BatchStateQuery: %v", err)
	}
	if err := VerifyBatchState(&tip.Header, res); err != nil {
		t.Fatalf("VerifyBatchState: %v", err)
	}
	for i, k := range keys {
		present := i < len(keys)-2
		if present && res.Values[i] == nil {
			t.Fatalf("key %q: expected a present value", k)
		}
		if !present && res.Values[i] != nil {
			t.Fatalf("key %q: expected proven absence", k)
		}
	}

	// Wire round trip preserves verifiability.
	parsed, err := UnmarshalBatchStateResult(res.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBatchStateResult: %v", err)
	}
	if err := VerifyBatchState(&tip.Header, parsed); err != nil {
		t.Fatalf("VerifyBatchState after round trip: %v", err)
	}

	// The merged multiproof deduplicates shared upper nodes, so it is
	// smaller than K independent single-key proofs.
	sum := 0
	for _, k := range keys {
		sr, err := r.sp.StateQuery(k)
		if err != nil {
			t.Fatalf("StateQuery: %v", err)
		}
		sum += sr.EncodedSize()
	}
	if res.EncodedSize() >= sum {
		t.Fatalf("merged proof %dB not smaller than %dB of %d single proofs",
			res.EncodedSize(), sum, len(keys))
	}
}

func TestBatchStateVerifyRejectsTampering(t *testing.T) {
	r := newRig(t, workload.KVStore)
	r.advance(t, 5, 12)
	tip := r.sp.Node().Tip()
	keys := writtenKeys(t, r, 4)

	// Tampered value.
	res, err := r.sp.BatchStateQuery(keys)
	if err != nil {
		t.Fatalf("BatchStateQuery: %v", err)
	}
	res.Values[0] = []byte("forged")
	if err := VerifyBatchState(&tip.Header, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("tampered value: want ErrResultMismatch, got %v", err)
	}

	// A present value claimed absent.
	res, err = r.sp.BatchStateQuery(keys)
	if err != nil {
		t.Fatalf("BatchStateQuery: %v", err)
	}
	res.Values[0] = nil
	if err := VerifyBatchState(&tip.Header, res); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("hidden value: want ErrResultMismatch, got %v", err)
	}

	// Missing proof and malformed shape.
	res, err = r.sp.BatchStateQuery(keys)
	if err != nil {
		t.Fatalf("BatchStateQuery: %v", err)
	}
	res.Proof = nil
	if err := VerifyBatchState(&tip.Header, res); !errors.Is(err, ErrBadProof) {
		t.Fatalf("missing proof: want ErrBadProof, got %v", err)
	}
	res, err = r.sp.BatchStateQuery(keys)
	if err != nil {
		t.Fatalf("BatchStateQuery: %v", err)
	}
	res.Values = res.Values[:len(res.Values)-1]
	if err := VerifyBatchState(&tip.Header, res); !errors.Is(err, ErrBadProof) {
		t.Fatalf("misaligned values: want ErrBadProof, got %v", err)
	}
}

// A K=1 batch is the single-key query: same witness bytes, same value.
func TestBatchK1MatchesSingleKeyProof(t *testing.T) {
	r := newRig(t, workload.KVStore)
	r.advance(t, 4, 12)
	keys := writtenKeys(t, r, 1)

	single, err := r.sp.StateQuery(keys[0])
	if err != nil {
		t.Fatalf("StateQuery: %v", err)
	}
	batch, err := r.sp.BatchStateQuery(keys[:1])
	if err != nil {
		t.Fatalf("BatchStateQuery: %v", err)
	}
	if !bytes.Equal(single.Proof.Marshal(), batch.Proof.Marshal()) {
		t.Fatal("K=1 batch proof differs from the single-key proof bytes")
	}
	if !bytes.Equal(single.Value, batch.Values[0]) {
		t.Fatal("K=1 batch value differs from the single-key value")
	}
}

func TestBatchStateQueryLimits(t *testing.T) {
	r := newRig(t, workload.KVStore)
	r.advance(t, 2, 8)

	if _, err := r.sp.BatchStateQuery(nil); err == nil {
		t.Fatal("want error for empty batch")
	}
	big := make([]string, MaxBatchKeys+1)
	for i := range big {
		big[i] = itoa(i)
	}
	if _, err := r.sp.BatchStateQuery(big); err == nil {
		t.Fatal("want error for oversized batch")
	}
	if _, err := UnmarshalBatchStateResult([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error for garbage batch result")
	}
}

func TestBatchRequestWireRoundTrip(t *testing.T) {
	req := NewBatchStateRequest([]string{"a", "b", "c"})
	parsed, err := UnmarshalRequest(req.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalRequest: %v", err)
	}
	if parsed.Kind != reqBatchState || len(parsed.Keys) != 3 || parsed.Keys[1] != "b" {
		t.Fatalf("round trip mismatch: %+v", parsed)
	}
}

func TestNetworkedBatchState(t *testing.T) {
	r, c := servedRig(t)
	tip := r.sp.Node().Tip()
	ix, err := r.sp.Index("hist")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	// The historical index covers written state keys, so it supplies a
	// present key regardless of workload.
	keys := []string{anyIndexedKey(t, ix), "never-written"}
	res, err := UnmarshalBatchStateResult(askOK(t, c, NewBatchStateRequest(keys)).Body)
	if err != nil {
		t.Fatalf("UnmarshalBatchStateResult: %v", err)
	}
	if err := VerifyBatchState(&tip.Header, res); err != nil {
		t.Fatalf("VerifyBatchState over the wire: %v", err)
	}
}
