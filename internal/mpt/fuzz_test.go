package mpt

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// FuzzUnmarshalWitness drives the witness decoder, which reads untrusted
// proofs (a client's state answers, the enclave's update proofs): whatever
// parses re-marshals canonically, and no input allocates more than 64 bytes
// per input byte plus 64 KiB.
func FuzzUnmarshalWitness(f *testing.F) {
	tr := New()
	for i := 0; i < 30; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			f.Fatalf("Put: %v", err)
		}
	}
	if _, err := tr.Hash(); err != nil {
		f.Fatalf("Hash: %v", err)
	}
	w, err := tr.Prove([]byte("k7"))
	if err != nil {
		f.Fatalf("Prove: %v", err)
	}
	f.Add(w.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parsed, err := UnmarshalWitness(raw)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(raw), got, bound)
		}
		if err != nil {
			return
		}
		// Decoded witnesses are content-addressed, so re-marshal is a
		// permutation-stable canonical form.
		again, err := UnmarshalWitness(parsed.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if !bytes.Equal(again.Marshal(), parsed.Marshal()) {
			t.Fatal("witness marshal not canonical")
		}
	})
}

// FuzzPartialTrieOps throws fuzzed key/value operations at a partial trie
// built from a hostile (fuzz-mutated) witness; nothing may panic, decoding
// and reading may allocate no more than 64 bytes per input byte plus 64 KiB,
// and successful reads must come from authenticated nodes only.
func FuzzPartialTrieOps(f *testing.F) {
	tr := New()
	for i := 0; i < 10; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("acct-%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			f.Fatalf("Put: %v", err)
		}
	}
	root, err := tr.Hash()
	if err != nil {
		f.Fatalf("Hash: %v", err)
	}
	w, err := tr.WitnessForKeys([][]byte{[]byte("acct-3"), []byte("acct-7")})
	if err != nil {
		f.Fatalf("WitnessForKeys: %v", err)
	}
	f.Add(w.Marshal(), []byte("acct-3"))
	f.Add(w.Marshal(), []byte("zzz"))
	f.Fuzz(func(t *testing.T, rawWitness, key []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parsed, err := UnmarshalWitness(rawWitness)
		var v []byte
		if err == nil {
			v, err = NewPartial(root, parsed).Get(key)
		}
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*(len(rawWitness)+len(key)))+64<<10; got > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d (err %v)", len(rawWitness)+len(key), got, bound, err)
		}
		if err == nil && v != nil {
			// Any successful read must match the real trie (content
			// addressing makes forgery impossible).
			want, err := tr.Get(key)
			if err != nil {
				t.Fatalf("real Get: %v", err)
			}
			if !bytes.Equal(v, want) {
				t.Fatalf("partial trie returned forged value %q for %q", v, key)
			}
		}
	})
}
