package storage

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dcert/internal/chash"
)

// TestDecodeStateRecordBoundsCount: the write count of a state record comes
// from disk. A 48-byte record (height, root, count 2^22, no entries) used to
// size a map for four million entries before reading one, about 384 MiB; the
// largest legal count, 2^28, asked for about 24 GiB at open. Every entry takes
// at least 8 bytes, so the count is refused against the bytes left.
func TestDecodeStateRecordBoundsCount(t *testing.T) {
	enc := chash.NewEncoder(48)
	enc.PutUint64(7)
	enc.PutHash(chash.Leaf([]byte("root")))
	enc.PutUint64(1 << 22)
	raw := enc.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := decodeStateRecord(raw)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding a 48-byte record allocated %d bytes", got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count 2^22 with no entries: want ErrCorrupt, got %v", err)
	}
}

// FuzzDecodeStateRecord fuzzes the codec of the state WAL and the snapshot
// image: any input either fails to decode, or re-encodes to the same bytes.
// The encoder walks a map, which leaves the order of entries free, so with
// two or more entries the check is the same header, the same length and the
// same decoded record; a repeated key would fail it.
func FuzzDecodeStateRecord(f *testing.F) {
	f.Add(encodeStateRecord(0, chash.Hash{}, nil))
	f.Add(encodeStateRecord(3, chash.Leaf([]byte("root")), map[string][]byte{"k": []byte("v")}))
	f.Add(encodeStateRecord(9, chash.Hash{1}, map[string][]byte{"a": {}, "b": []byte("xy"), "c": []byte("z")}))
	hostile := chash.NewEncoder(48)
	hostile.PutUint64(1)
	hostile.PutHash(chash.Hash{})
	hostile.PutUint64(1 << 28)
	f.Add(hostile.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		height, root, writes, err := decodeStateRecord(raw)
		if err != nil {
			return
		}
		out := encodeStateRecord(height, root, writes)
		if len(writes) <= 1 {
			if !bytes.Equal(out, raw) {
				t.Fatalf("re-encoding differs:\n in  %x\n out %x", raw, out)
			}
			return
		}
		const header = 8 + chash.Size + 8
		if len(out) != len(raw) || !bytes.Equal(out[:header], raw[:header]) {
			t.Fatalf("re-encoding differs beyond entry order:\n in  %x\n out %x", raw, out)
		}
		h2, r2, w2, err := decodeStateRecord(out)
		if err != nil || h2 != height || r2 != root || len(w2) != len(writes) {
			t.Fatalf("re-encoding does not decode to the same record: %v", err)
		}
		for k, v := range writes {
			if got, ok := w2[k]; !ok || !bytes.Equal(got, v) {
				t.Fatalf("re-encoding changed write %q", k)
			}
		}
	})
}
