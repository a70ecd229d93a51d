package smt

import (
	"bytes"
	"runtime"
	"testing"

	"dcert/internal/chash"
)

// FuzzUnmarshalMultiproof drives the multiproof decoder the trusted program
// runs on a host-supplied SMT state proof (statedb.UnmarshalUpdateProof):
// every input must fail or round-trip, and decoding may allocate only in
// proportion to the bytes.
func FuzzUnmarshalMultiproof(f *testing.F) {
	tree, err := New(16)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	for i := 0; i < 8; i++ {
		tree.Put(KeyFromString(string(rune('a'+i))), chash.Sum(chash.DomainLeaf, []byte{byte(i)}))
	}
	honest, err := tree.Prove([]Key{KeyFromString("a"), KeyFromString("e"), KeyFromString("z")})
	if err != nil {
		f.Fatalf("Prove: %v", err)
	}
	if _, err := UnmarshalMultiproof(honest.Marshal()); err != nil {
		f.Fatalf("honest proof refused: %v", err)
	}
	f.Add(honest.Marshal())
	lying := chash.NewEncoder(12)
	lying.PutUint32(16)
	lying.PutUint32(0)
	lying.PutUint32(1 << 22) // fills claimed, nothing behind them
	f.Add(lying.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mp, err := UnmarshalMultiproof(raw)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(raw), got, bound)
		}
		if err != nil {
			return
		}
		re := mp.Marshal()
		again, err := UnmarshalMultiproof(re)
		if err != nil {
			t.Fatalf("the re-encoding of an accepted proof fails to decode: %v", err)
		}
		if !bytes.Equal(re, again.Marshal()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
