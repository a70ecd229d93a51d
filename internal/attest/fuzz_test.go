package attest

import (
	"runtime"
	"testing"

	"dcert/internal/chash"
)

// FuzzUnmarshalReport drives the attestation-report decoder every bootstrap
// runs on the tip certificate with hostile bytes: it must never allocate more
// than a small multiple of its input, whatever lengths the bytes claim,
// whatever it accepts must re-encode to the same bytes, and only the genuine
// report may verify.
func FuzzUnmarshalReport(f *testing.F) {
	a, err := NewAuthority()
	if err != nil {
		f.Fatalf("NewAuthority: %v", err)
	}
	p, err := a.NewPlatform()
	if err != nil {
		f.Fatalf("NewPlatform: %v", err)
	}
	m := chash.Leaf([]byte("program"))
	rd := chash.Leaf([]byte("pk"))
	q, err := p.SignQuote(m, rd)
	if err != nil {
		f.Fatalf("SignQuote: %v", err)
	}
	rep, err := a.Attest(q)
	if err != nil {
		f.Fatalf("Attest: %v", err)
	}
	f.Add(rep.Marshal())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})

	genuine := string(rep.Marshal())
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parsed, err := UnmarshalReport(raw)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(raw), got, bound)
		}
		if err != nil {
			return
		}
		if string(parsed.Marshal()) != string(raw) {
			t.Fatal("non-canonical report decode")
		}
		// Only the genuine bytes may verify.
		if err := parsed.Verify(a.PublicKey(), m, rd); err == nil && string(raw) != genuine {
			t.Fatal("a mutated report verified")
		}
	})
}
