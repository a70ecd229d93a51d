package query

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"dcert/internal/chash"
	"dcert/internal/mbtree"
	"dcert/internal/mpt"
)

// encodeUpdateWitness renders a decoded update witness in UpdateWitness's
// layout (lower witnesses in key order), for round-trip checks.
func encodeUpdateWitness(upper *mpt.Witness, lowers map[string]*mbtree.Witness) []byte {
	keys := make([]string, 0, len(lowers))
	for k := range lowers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := chash.NewEncoder(256)
	e.PutBytes(upper.Marshal())
	e.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutBytes(lowers[k].Marshal())
	}
	return e.Bytes()
}

// updateWitnessAllocBound is what decoding an update witness of n bytes may
// allocate: a small multiple of the bytes (node maps, keys) plus a constant.
func updateWitnessAllocBound(n int) uint64 {
	return uint64(64*n) + 64<<10
}

// allocsOf reports the bytes fn allocates.
func allocsOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUpdateWitnessCountBoundedByBytes: Replay runs inside the trusted
// program on a witness the untrusted host supplies, so a count claiming more
// lower witnesses than the bytes behind it can hold must fail before it
// sizes anything. A 12-byte witness claiming 2^20 entries once allocated
// ≈ 56 MB.
func TestUpdateWitnessCountBoundedByBytes(t *testing.T) {
	e := chash.NewEncoder(12)
	e.PutBytes(mpt.NewWitness().Marshal()) // empty upper witness
	e.PutUint32(1 << 20)                   // lower witness count, nothing behind it
	raw := e.Bytes()
	var err error
	runtime.GC()
	// TotalAlloc is process-wide: a goroutine still running from another
	// test can add to one run, never take from it, so the least of three
	// runs is the decoder's own.
	got := uint64(math.MaxUint64)
	for range 3 {
		got = min(got, allocsOf(func() { _, _, err = decodeUpdateWitness(raw) }))
	}
	if err == nil {
		t.Fatalf("a %d-byte witness claiming %d lower witnesses was accepted", len(raw), 1<<20)
	}
	if got > 4<<10 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), got)
	}
}
