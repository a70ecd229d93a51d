package chain

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dcert/internal/chash"
)

func testKey(t *testing.T) *chash.PrivateKey {
	t.Helper()
	sk, err := chash.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return sk
}

func signedTx(t *testing.T, sk *chash.PrivateKey, nonce uint64) *Transaction {
	t.Helper()
	tx := &Transaction{
		Nonce:    nonce,
		Contract: "kv-0001",
		Method:   "set",
		Args:     [][]byte{[]byte("key"), []byte("value")},
	}
	if err := tx.Sign(sk); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return tx
}

func TestHeaderHashDeterministic(t *testing.T) {
	h := Header{Height: 5, Time: 99, Consensus: ConsensusProof{Nonce: 7, Difficulty: 8}}
	if h.Hash() != h.Hash() {
		t.Fatal("header hash must be deterministic")
	}
	h2 := h
	h2.Height = 6
	if h.Hash() == h2.Hash() {
		t.Fatal("different headers must hash differently")
	}
}

func TestHeaderHashCoversAllFields(t *testing.T) {
	base := Header{Height: 1, PrevHash: chash.Leaf([]byte("p")), StateRoot: chash.Leaf([]byte("s")),
		TxRoot: chash.Leaf([]byte("t")), Time: 10, Consensus: ConsensusProof{Nonce: 1, Difficulty: 2}}
	mutations := []func(*Header){
		func(h *Header) { h.Height++ },
		func(h *Header) { h.PrevHash = chash.Leaf([]byte("x")) },
		func(h *Header) { h.StateRoot = chash.Leaf([]byte("x")) },
		func(h *Header) { h.TxRoot = chash.Leaf([]byte("x")) },
		func(h *Header) { h.Time++ },
		func(h *Header) { h.Consensus.Nonce++ },
		func(h *Header) { h.Consensus.Difficulty++ },
	}
	for i, mutate := range mutations {
		h := base
		mutate(&h)
		if h.Hash() == base.Hash() {
			t.Fatalf("mutation %d did not change the header hash", i)
		}
	}
}

func TestHeaderMarshalRoundTrip(t *testing.T) {
	h := Header{Height: 42, PrevHash: chash.Leaf([]byte("prev")), StateRoot: chash.Leaf([]byte("state")),
		TxRoot: chash.Leaf([]byte("tx")), Time: 1234, Consensus: ConsensusProof{Nonce: 55, Difficulty: 8}}
	got, err := UnmarshalHeader(h.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalHeader: %v", err)
	}
	if *got != h {
		t.Fatalf("round trip mismatch: %+v vs %+v", *got, h)
	}
	if h.EncodedSize() != len(h.Marshal()) {
		t.Fatal("EncodedSize mismatch")
	}
}

func TestUnmarshalHeaderRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error for truncated header")
	}
	h := Header{Height: 1}
	raw := append(h.Marshal(), 0xff)
	if _, err := UnmarshalHeader(raw); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestTransactionSignVerify(t *testing.T) {
	sk := testKey(t)
	tx := signedTx(t, sk, 1)
	if err := tx.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestTransactionVerifyRejectsTamperedArgs(t *testing.T) {
	sk := testKey(t)
	tx := signedTx(t, sk, 1)
	tx.Args[1] = []byte("tampered")
	if err := tx.Verify(); !errors.Is(err, ErrBadTx) {
		t.Fatalf("want ErrBadTx, got %v", err)
	}
}

func TestTransactionVerifyRejectsWrongSender(t *testing.T) {
	sk := testKey(t)
	tx := signedTx(t, sk, 1)
	tx.From[0] ^= 0xff
	if err := tx.Verify(); !errors.Is(err, ErrBadTx) {
		t.Fatalf("want ErrBadTx, got %v", err)
	}
}

func TestTransactionVerifyRejectsSwappedKey(t *testing.T) {
	skA := testKey(t)
	skB := testKey(t)
	tx := signedTx(t, skA, 1)
	pkB, err := skB.Public()
	if err != nil {
		t.Fatalf("Public: %v", err)
	}
	tx.PubKey = pkB.Marshal()
	if err := tx.Verify(); !errors.Is(err, ErrBadTx) {
		t.Fatalf("want ErrBadTx, got %v", err)
	}
}

func TestTransactionMarshalRoundTrip(t *testing.T) {
	sk := testKey(t)
	tx := signedTx(t, sk, 9)
	got, err := UnmarshalTransaction(tx.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalTransaction: %v", err)
	}
	if got.Hash() != tx.Hash() {
		t.Fatal("round-tripped tx hash mismatch")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("round-tripped tx must verify: %v", err)
	}
	if got.From != tx.From || got.Nonce != tx.Nonce || got.Contract != tx.Contract || got.Method != tx.Method {
		t.Fatal("round-tripped tx fields mismatch")
	}
	if len(got.Args) != len(tx.Args) {
		t.Fatal("round-tripped args length mismatch")
	}
	for i := range got.Args {
		if !bytes.Equal(got.Args[i], tx.Args[i]) {
			t.Fatalf("arg %d mismatch", i)
		}
	}
}

func TestComputeTxRoot(t *testing.T) {
	sk := testKey(t)
	empty, err := ComputeTxRoot(nil)
	if err != nil {
		t.Fatalf("ComputeTxRoot(nil): %v", err)
	}
	if !empty.IsZero() {
		t.Fatal("empty tx root must be zero")
	}
	txs := []*Transaction{signedTx(t, sk, 1), signedTx(t, sk, 2)}
	r1, err := ComputeTxRoot(txs)
	if err != nil {
		t.Fatalf("ComputeTxRoot: %v", err)
	}
	r2, err := ComputeTxRoot([]*Transaction{txs[1], txs[0]})
	if err != nil {
		t.Fatalf("ComputeTxRoot: %v", err)
	}
	if r1 == r2 {
		t.Fatal("tx root must depend on order")
	}
}

func TestBlockVerifyTxRoot(t *testing.T) {
	sk := testKey(t)
	txs := []*Transaction{signedTx(t, sk, 1), signedTx(t, sk, 2)}
	root, err := ComputeTxRoot(txs)
	if err != nil {
		t.Fatalf("ComputeTxRoot: %v", err)
	}
	b := &Block{Header: Header{Height: 1, TxRoot: root}, Txs: txs}
	if err := b.VerifyTxRoot(); err != nil {
		t.Fatalf("VerifyTxRoot: %v", err)
	}
	b.Txs = b.Txs[:1]
	if err := b.VerifyTxRoot(); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("want ErrBadBlock, got %v", err)
	}
}

func TestBlockMarshalRoundTrip(t *testing.T) {
	sk := testKey(t)
	txs := []*Transaction{signedTx(t, sk, 1), signedTx(t, sk, 2), signedTx(t, sk, 3)}
	root, err := ComputeTxRoot(txs)
	if err != nil {
		t.Fatalf("ComputeTxRoot: %v", err)
	}
	b := &Block{Header: Header{Height: 3, TxRoot: root, Time: 77}, Txs: txs}
	got, err := UnmarshalBlock(b.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalBlock: %v", err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("round-tripped block hash mismatch")
	}
	if len(got.Txs) != 3 {
		t.Fatalf("round-tripped block has %d txs", len(got.Txs))
	}
	if err := got.VerifyTxRoot(); err != nil {
		t.Fatalf("round-tripped block tx root: %v", err)
	}
}

func TestAddressOfStable(t *testing.T) {
	sk := testKey(t)
	pk, err := sk.Public()
	if err != nil {
		t.Fatalf("Public: %v", err)
	}
	if AddressOf(pk) != AddressOf(pk) {
		t.Fatal("address must be deterministic")
	}
	if len(AddressOf(pk).Hex()) != 2*AddressSize {
		t.Fatal("hex address length")
	}
}

// decodeAllocs reports the bytes one decode allocates.
func decodeAllocs(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersBoundCountsByInput feeds each block decoder a short input whose
// element count is far beyond what its bytes can hold: the decode must fail
// without sizing an allocation from the count.
func TestDecodersBoundCountsByInput(t *testing.T) {
	hdr := Header{Height: 1}
	blk := chash.NewEncoder(0)
	blk.PutBytes(hdr.Marshal())
	blk.PutUint32(1 << 20) // transactions claimed, none present
	tx := chash.NewEncoder(0)
	tx.PutBytes(make([]byte, AddressSize))
	tx.PutUint64(0)
	tx.PutString("a")
	tx.PutString("b")
	tx.PutUint32(1 << 16) // arguments claimed, none present

	const limit = 64 << 10
	cases := []struct {
		name   string
		raw    []byte
		decode func([]byte) error
	}{
		{"block", blk.Bytes(), func(raw []byte) error { _, err := UnmarshalBlock(raw); return err }},
		{"tx", tx.Bytes(), func(raw []byte) error { _, err := UnmarshalTransaction(raw); return err }},
	}
	for _, c := range cases {
		var err error
		n := decodeAllocs(func() { err = c.decode(c.raw) })
		if err == nil {
			t.Errorf("%s: %d-byte input with a hostile count decoded", c.name, len(c.raw))
		}
		if n > limit {
			t.Errorf("%s: %d-byte input allocated %d bytes, want under %d", c.name, len(c.raw), n, limit)
		}
	}
}
