package mbtree

import (
	"fmt"
	"runtime"
	"testing"
)

// FuzzUnmarshalWitness drives the witness decoder, which reads untrusted
// range proofs (a client's historical answers, the enclave's index update
// proofs): no input may panic it or allocate more than 64 bytes per input
// byte plus 64 KiB.
func FuzzUnmarshalWitness(f *testing.F) {
	tr := NewDefault()
	for i := uint64(0); i < 50; i++ {
		if err := tr.Insert(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			f.Fatalf("Insert: %v", err)
		}
	}
	w, err := tr.WitnessForRange(10, 20)
	if err != nil {
		f.Fatalf("WitnessForRange: %v", err)
	}
	f.Add(w.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalWitness(raw)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d (err %v)", len(raw), got, bound, err)
		}
	})
}

// FuzzVerifyRange stresses the verifier with mutated proofs: it must never
// panic, decoding and verifying may allocate no more than 64 bytes per input
// byte plus 64 KiB, and whenever it succeeds the result set must match the
// real tree's.
func FuzzVerifyRange(f *testing.F) {
	tr := NewDefault()
	for i := uint64(0); i < 80; i++ {
		if err := tr.Insert(i*2, []byte(fmt.Sprintf("v%d", i))); err != nil {
			f.Fatalf("Insert: %v", err)
		}
	}
	root, err := tr.Root()
	if err != nil {
		f.Fatalf("Root: %v", err)
	}
	w, err := tr.WitnessForRange(20, 60)
	if err != nil {
		f.Fatalf("WitnessForRange: %v", err)
	}
	f.Add(w.Marshal(), uint64(20), uint64(60))
	f.Add(w.Marshal(), uint64(0), uint64(200))
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint64) {
		if lo > hi {
			lo, hi = hi, lo
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		proof, err := UnmarshalWitness(raw)
		var got []Entry
		if err == nil {
			got, err = VerifyRange(DefaultOrder, root, lo, hi, proof)
		}
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw))+64<<10; alloc > bound {
			t.Fatalf("verifying %d bytes allocated %d bytes, bound %d (err %v)", len(raw), alloc, bound, err)
		}
		if err != nil {
			return
		}
		want, err := tr.Range(lo, hi)
		if err != nil {
			t.Fatalf("real Range: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("verified scan returned %d entries, real tree has %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Version != want[i].Version {
				t.Fatalf("entry %d version mismatch", i)
			}
		}
	})
}
