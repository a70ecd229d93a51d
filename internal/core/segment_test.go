package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"testing"
	"time"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/enclave"
	"dcert/internal/node"
	"dcert/internal/statedb"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// segRig is a fully seeded issuer + miner pair over the same deterministic
// genesis: every byte it produces — headers, certificates, interlinks — is
// identical across runs, which is what lets the golden tests pin digests as
// constants. Blocks are mined EMPTY (the workload generator's random account
// keys are the only nondeterminism in the stack).
type segRig struct {
	ci     *Issuer
	miner  *node.Miner
	auth   *attest.Authority
	params consensus.Params
}

func newSegRig(t testing.TB, seed string) *segRig {
	t.Helper()
	authority, err := attest.NewAuthorityFromSeed([]byte(seed))
	if err != nil {
		t.Fatalf("NewAuthorityFromSeed: %v", err)
	}
	platform, err := authority.NewPlatformFromSeed([]byte(seed))
	if err != nil {
		t.Fatalf("NewPlatformFromSeed: %v", err)
	}
	params := consensus.Params{Difficulty: 4}
	mkNode := func() *node.FullNode {
		reg := vm.NewRegistry()
		if err := workload.Register(reg, workload.KVStore, 3); err != nil {
			t.Fatalf("Register: %v", err)
		}
		genesis, db, err := node.BuildGenesis(node.GenesisConfig{Time: 1, Consensus: params})
		if err != nil {
			t.Fatalf("BuildGenesis: %v", err)
		}
		n, err := node.NewFullNode(genesis, db, reg, params)
		if err != nil {
			t.Fatalf("NewFullNode: %v", err)
		}
		return n
	}
	ci, err := NewIssuerFromSeed(mkNode(), authority, platform, enclave.CostModel{}, []byte(seed))
	if err != nil {
		t.Fatalf("NewIssuerFromSeed: %v", err)
	}
	return &segRig{ci: ci, miner: node.NewMiner(mkNode()), auth: authority, params: params}
}

func (r *segRig) client() *SuperlightClient {
	return NewSuperlightClient(r.auth.PublicKey(), r.ci.Measurement(), r.params)
}

// mineEmpty proposes n deterministic empty blocks.
func (r *segRig) mineEmpty(t testing.TB, n int) []*chain.Block {
	t.Helper()
	blks := make([]*chain.Block, n)
	for i := range blks {
		b, err := r.miner.Propose(nil)
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		blks[i] = b
	}
	return blks
}

// TestSegmentDigestK1Identity pins the identity the whole compatibility story
// rests on: the segment digest of a single header IS the block digest.
func TestSegmentDigestK1Identity(t *testing.T) {
	h := &chain.Header{Height: 7, Time: 42, PrevHash: chash.Leaf([]byte("prev"))}
	if SegmentDigest([]*chain.Header{h}) != BlockDigest(h) {
		t.Fatal("SegmentDigest of one header must equal BlockDigest")
	}
	h2 := &chain.Header{Height: 8, Time: 43, PrevHash: h.Hash()}
	if SegmentDigest([]*chain.Header{h, h2}) == BlockDigest(h) {
		t.Fatal("multi-header segment digest must differ from any block digest")
	}
}

// TestSegmentK1ByteIdentity drives two issuers built from one seed over the
// same blocks — one through ProcessBlock, one through one-block
// ProcessSegment calls — and requires byte-identical certificates at every
// height. K=1 is not a compatible mode; it is the same bytes. ProcessBlock now
// delegates to ProcessSegment, so the comparison holds by construction: the
// reference for the per-block bytes is the seg_k1_cert golden digest below,
// captured from the pre-segment code.
func TestSegmentK1ByteIdentity(t *testing.T) {
	const seed = "segment-k1-v1"
	a := newSegRig(t, seed)
	b := newSegRig(t, seed)
	blks := a.mineEmpty(t, 5)

	for i, blk := range blks {
		certA, _, err := a.ci.ProcessBlock(blk)
		if err != nil {
			t.Fatalf("ProcessBlock(%d): %v", i, err)
		}
		segB, _, err := b.ci.ProcessSegment([]*chain.Block{blk})
		if err != nil {
			t.Fatalf("ProcessSegment(%d): %v", i, err)
		}
		if !bytes.Equal(certA.Marshal(), segB.Cert.Marshal()) {
			t.Fatalf("height %d: one-block segment certificate differs from single-block certificate", blk.Header.Height)
		}
		// The one-block segment is fully consumable by the unchanged
		// per-block client path.
		if err := a.client().ValidateChain(segB.Tip(), segB.Cert); err != nil {
			t.Fatalf("ValidateChain on segment cert: %v", err)
		}
	}
}

// Golden digests captured from the deterministic seeded rig (print with
// DCERT_PRINT_GOLDEN=1). They pin, across refactors:
//   - seg_k1_cert:   the single-block certificate bytes (K=1 compatibility),
//   - seg_k4_wire:   the full K=4 SegmentCert wire encoding, interlink
//     included — deployed clients parse exactly these bytes.
var goldenSegmentDigests = map[string]string{
	"seg_k1_cert": "1627b0536e858b67436e7032ffaa9bfb14fc0b3ee718bd505cf6d4f635416b8c",
	"seg_k4_wire": "33fbd65f2a33bcfda7890522fc9e54bb7e708cb8ae95d365d945d986acc2d933",
}

func segmentGoldenVectors(t *testing.T) map[string]string {
	t.Helper()
	const seed = "segment-golden-v1"

	k1 := newSegRig(t, seed)
	cert, _, err := k1.ci.ProcessBlock(k1.mineEmpty(t, 1)[0])
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}

	k4 := newSegRig(t, seed)
	blks := k4.mineEmpty(t, 8)
	if _, _, err := k4.ci.ProcessSegment(blks[:4]); err != nil {
		t.Fatalf("ProcessSegment[1,4]: %v", err)
	}
	// The second segment has a non-trivial interlink (levels back to
	// genesis), so its pin covers the interlink encoding too.
	seg, _, err := k4.ci.ProcessSegment(blks[4:])
	if err != nil {
		t.Fatalf("ProcessSegment[5,8]: %v", err)
	}
	if err := k4.client().ValidateSegment(seg); err != nil {
		t.Fatalf("ValidateSegment: %v", err)
	}

	digest := func(raw []byte) string {
		sum := chash.Sum(chash.DomainNode, raw)
		return hex.EncodeToString(sum.Bytes())
	}
	return map[string]string{
		"seg_k1_cert": digest(cert.Marshal()),
		"seg_k4_wire": digest(seg.Marshal()),
	}
}

func TestSegmentGoldenDigests(t *testing.T) {
	got := segmentGoldenVectors(t)
	if os.Getenv("DCERT_PRINT_GOLDEN") != "" {
		for name, d := range got {
			fmt.Printf("\t%q: %q,\n", name, d)
		}
	}
	for name, want := range goldenSegmentDigests {
		if got[name] != want {
			t.Errorf("%s: encoding drifted from golden vector\n got %s\nwant %s", name, got[name], want)
		}
	}
}

// TestEcallInputSizing pins what a block-certification Ecall copies into the
// enclave. A K=1 stream pays exactly the per-block input — previous header,
// block, proof, previous certificate — and a segment counts the headers under
// the previous certificate once each (the tip header used to be counted
// twice).
func TestEcallInputSizing(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	var blks []*chain.Block
	var proofs []*statedb.UpdateProof
	for i := 0; i < 4; i++ {
		blk := e.mine(t, 4)
		prev, prevCert := e.issuer.certifiedTip()
		proof, _, err := e.issuer.prepare(blk, &CostBreakdown{})
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		want := len(prev.Header.Marshal()) + len(blk.Marshal()) + proof.EncodedSize()
		if prevCert != nil {
			want += prevCert.EncodedSize()
		}
		before := e.issuer.Enclave().Stats().BytesIn
		if _, _, err := e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		if got := e.issuer.Enclave().Stats().BytesIn - before; got != uint64(want) {
			t.Fatalf("height %d: Ecall copied %d bytes in, want %d", blk.Header.Height, got, want)
		}
		blks, proofs = append(blks, blk), append(proofs, proof)
	}

	prev, cert := blks[1], e.issuer.LatestCert()
	want := cert.EncodedSize()
	for _, h := range segmentHeaders(blks[:2]) {
		want += len(h.Marshal())
	}
	for i := 2; i < 4; i++ {
		want += len(blks[i].Marshal()) + proofs[i].EncodedSize()
	}
	if got := ecallInputSize(prev, segmentHeaders(blks[:2]), cert, blks[2:], proofs[2:]); got != want {
		t.Fatalf("two blocks over a two-block segment: sized %d bytes, want %d", got, want)
	}
}

// TestSegmentCertRoundTrip: the wire encoding must round-trip canonically —
// parse, re-marshal, identical bytes — and the parsed segment must carry the
// interlink schedule InterlinkHeights prescribes.
func TestSegmentCertRoundTrip(t *testing.T) {
	r := newSegRig(t, "segment-roundtrip-v1")
	blks := r.mineEmpty(t, 8)
	if _, _, err := r.ci.ProcessSegment(blks[:4]); err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}
	seg, _, err := r.ci.ProcessSegment(blks[4:])
	if err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}
	raw := seg.Marshal()
	parsed, err := UnmarshalSegmentCert(raw)
	if err != nil {
		t.Fatalf("UnmarshalSegmentCert: %v", err)
	}
	if !bytes.Equal(parsed.Marshal(), raw) {
		t.Fatal("segment certificate does not round-trip canonically")
	}
	if err := r.client().ValidateSegment(parsed); err != nil {
		t.Fatalf("ValidateSegment(parsed): %v", err)
	}
	heights := InterlinkHeights(seg.Start())
	if len(parsed.Interlink) != len(heights) {
		t.Fatalf("interlink levels %d, schedule wants %d", len(parsed.Interlink), len(heights))
	}
	for l, h := range heights {
		blk, err := r.ci.Node().Store().AtHeight(h)
		if err != nil {
			t.Fatalf("AtHeight(%d): %v", h, err)
		}
		if parsed.Interlink[l] != blk.Hash() {
			t.Fatalf("interlink level %d does not point at certified height %d", l, h)
		}
	}
}

// TestUnmarshalSegmentCertBounds: adversarial count fields must fail fast,
// before any allocation proportional to the claimed count.
func TestUnmarshalSegmentCertBounds(t *testing.T) {
	huge := chash.NewEncoder(8)
	huge.PutUint32(1 << 30) // claimed headers far beyond maxSegmentBlocks
	if _, err := UnmarshalSegmentCert(huge.Bytes()); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("huge header count: want ErrBadSegment, got %v", err)
	}
	zero := chash.NewEncoder(8)
	zero.PutUint32(0)
	if _, err := UnmarshalSegmentCert(zero.Bytes()); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("zero header count: want ErrBadSegment, got %v", err)
	}
	if _, err := UnmarshalSegmentCert(nil); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("empty input: want ErrBadSegment, got %v", err)
	}
}

// TestSegmentedPipelineEquivalence is the segment analogue of
// TestPipelineEquivalence: the segmented pipeline must emit byte-identical
// segment certificates and the same final state root as sequential
// ProcessSegment calls over the same batches — while spending exactly one
// Ecall per segment.
func TestSegmentedPipelineEquivalence(t *testing.T) {
	const seed = "segment-pipe-v1"
	const numBlocks, segBlocks = 8, 4
	blks := mineBlocks(t, workload.KVStore, numBlocks, 5)

	seq := newSeededIssuer(t, workload.KVStore, seed)
	var seqCerts [][]byte
	for i := 0; i < numBlocks; i += segBlocks {
		seg, _, err := seq.ProcessSegment(blks[i : i+segBlocks])
		if err != nil {
			t.Fatalf("ProcessSegment: %v", err)
		}
		for range seg.Headers {
			seqCerts = append(seqCerts, seg.Cert.Marshal())
		}
	}
	seqRoot, err := seq.Node().State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}

	pipe := newSeededIssuer(t, workload.KVStore, seed)
	before := pipe.Enclave().Stats().Ecalls
	results, err := pipe.ProcessBlocksPipelined(blks, PipelineConfig{
		Workers: 3,
		Segment: &SegmentPolicy{MaxBlocks: segBlocks},
	})
	if err != nil {
		t.Fatalf("ProcessBlocksPipelined: %v", err)
	}
	ecalls := pipe.Enclave().Stats().Ecalls - before
	if want := uint64(numBlocks / segBlocks); ecalls != want {
		t.Fatalf("segment pipeline spent %d Ecalls, want %d (one per segment)", ecalls, want)
	}
	if len(results) != numBlocks {
		t.Fatalf("results %d, want %d", len(results), numBlocks)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("block %d: %v", i, res.Err)
		}
		if res.Segment == nil {
			t.Fatalf("block %d: no covering segment", i)
		}
		if !bytes.Equal(res.Cert.Marshal(), seqCerts[i]) {
			t.Fatalf("block %d: pipelined segment certificate differs from sequential", i)
		}
	}
	pipeRoot, err := pipe.Node().State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if pipeRoot != seqRoot {
		t.Fatal("pipelined and sequential final state roots differ")
	}
	if got, want := pipe.Node().Tip().Header.Height, seq.Node().Tip().Header.Height; got != want {
		t.Fatalf("tip height %d, want %d", got, want)
	}
}

// TestSegmentPipelineDeadline: the adaptive half of the batching policy — a
// partial batch must certify MaxDelay after its first block, without waiting
// for MaxBlocks or stream end.
func TestSegmentPipelineDeadline(t *testing.T) {
	r := newSegRig(t, "segment-deadline-v1")
	blks := r.mineEmpty(t, 3)
	pl, err := NewPipeline(r.ci, PipelineConfig{
		Workers: 2,
		Segment: &SegmentPolicy{MaxBlocks: 64, MaxDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	for _, blk := range blks {
		if err := pl.Submit(blk); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// No Close: only the deadline can flush. All three results must arrive.
	covered := make(map[uint64]bool)
	for i := 0; i < len(blks); i++ {
		select {
		case res := <-pl.Results():
			if res.Err != nil {
				t.Fatalf("result %d: %v", i, res.Err)
			}
			if res.Segment == nil {
				t.Fatalf("result %d: deadline flush produced no segment", i)
			}
			covered[res.Block.Header.Height] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("deadline flush never fired (got %d of %d results)", i, len(blks))
		}
	}
	pl.Close()
	if err := pl.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for h := uint64(1); h <= 3; h++ {
		if !covered[h] {
			t.Fatalf("height %d never certified", h)
		}
	}
}

// TestSegmentPipelineConfigRejected: segment batching is mutually exclusive
// with index fan-out, and MaxBlocks is bounded — both rejected before the
// pipeline claims the issuer, so the issuer stays usable.
func TestSegmentPipelineConfigRejected(t *testing.T) {
	r := newSegRig(t, "segment-config-v1")
	_, err := NewPipeline(r.ci, PipelineConfig{
		Segment:   &SegmentPolicy{MaxBlocks: 4},
		IndexJobs: mockIndexJobs([]string{"mock"}),
	})
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("segment+index: want ErrBadSegment, got %v", err)
	}
	_, err = NewPipeline(r.ci, PipelineConfig{Segment: &SegmentPolicy{MaxBlocks: maxSegmentBlocks + 1}})
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("oversized MaxBlocks: want ErrBadSegment, got %v", err)
	}
	// The rejections must not have latched the issuer.
	if _, _, err := r.ci.ProcessSegment(r.mineEmpty(t, 2)); err != nil {
		t.Fatalf("issuer unusable after rejected configs: %v", err)
	}
}

// TestProcessSegmentRollback: a failed segment must leave the replica exactly
// at its certified tip — proven by certifying the same blocks successfully
// right after the failure.
func TestProcessSegmentRollback(t *testing.T) {
	blks := mineBlocks(t, workload.KVStore, 4, 5)
	ci := newSeededIssuer(t, workload.KVStore, "segment-rollback-v1")
	// Blocks 2.. do not extend the tip: prepare speculatively commits block 2's
	// writes, then the Ecall refutes the linkage and everything rolls back.
	if _, _, err := ci.ProcessSegment(blks[1:]); err == nil {
		t.Fatal("segment not extending the tip must fail")
	}
	seg, _, err := ci.ProcessSegment(blks)
	if err != nil {
		t.Fatalf("ProcessSegment after rollback: %v", err)
	}
	if seg.Start() != 1 || seg.End() != 4 {
		t.Fatalf("segment covers [%d,%d], want [1,4]", seg.Start(), seg.End())
	}
	// Byte-level proof the rollback was exact: a fresh issuer from the same
	// seed that never saw the failure signs the identical segment.
	fresh := newSeededIssuer(t, workload.KVStore, "segment-rollback-v1")
	segF, _, err := fresh.ProcessSegment(blks)
	if err != nil {
		t.Fatalf("fresh ProcessSegment: %v", err)
	}
	if !bytes.Equal(seg.Cert.Marshal(), segF.Cert.Marshal()) {
		t.Fatal("post-rollback certificate differs from a clean run")
	}
}

// TestValidateSegmentRejects covers the client-side refusal paths: tampered
// interlink hints, broken linkage, tampered headers, and the chain rule.
func TestValidateSegmentRejects(t *testing.T) {
	r := newSegRig(t, "segment-reject-v1")
	blks := r.mineEmpty(t, 8)
	if _, _, err := r.ci.ProcessSegment(blks[:4]); err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}
	seg, _, err := r.ci.ProcessSegment(blks[4:])
	if err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}

	copySeg := func() *SegmentCert {
		return &SegmentCert{
			Headers:   append([]*chain.Header(nil), seg.Headers...),
			Cert:      seg.Cert,
			Interlink: append([]chash.Hash(nil), seg.Interlink...),
		}
	}

	// The level-0 hint disagreeing with the signed PrevHash is a tampered
	// interlink, full stop.
	bad := copySeg()
	bad.Interlink[0] = chash.Leaf([]byte("forged"))
	if err := r.client().ValidateSegment(bad); !errors.Is(err, ErrBadInterlink) {
		t.Fatalf("tampered level-0 interlink: want ErrBadInterlink, got %v", err)
	}

	// Reordered headers break the internal linkage.
	bad = copySeg()
	bad.Headers[1], bad.Headers[2] = bad.Headers[2], bad.Headers[1]
	if err := r.client().ValidateSegment(bad); err == nil {
		t.Fatal("reordered headers accepted")
	}

	// A tampered header field breaks the certified segment digest.
	bad = copySeg()
	hdr := *bad.Headers[1]
	hdr.Time++
	bad.Headers[1] = &hdr
	if err := r.client().ValidateSegment(bad); err == nil {
		t.Fatal("tampered header accepted")
	}

	// Truncating the segment changes the digest the certificate signed.
	bad = copySeg()
	bad.Headers = bad.Headers[:3]
	if err := r.client().ValidateSegment(bad); err == nil {
		t.Fatal("truncated segment accepted")
	}

	// Chain rule: a valid segment does not re-validate onto its own tip.
	cl := r.client()
	if err := cl.ValidateSegment(seg); err != nil {
		t.Fatalf("ValidateSegment: %v", err)
	}
	if err := cl.ValidateSegment(seg); !errors.Is(err, ErrChainRule) {
		t.Fatalf("re-validated segment: want ErrChainRule, got %v", err)
	}
}

// TestSegmentSnapshotRestore: a client whose tip came from a multi-block
// segment must snapshot and restore through the full verification path, and
// single-block snapshots must keep their pre-segment format (no trailing
// field).
func TestSegmentSnapshotRestore(t *testing.T) {
	r := newSegRig(t, "segment-snapshot-v1")
	blks := r.mineEmpty(t, 5)

	// Single-block tip first: the snapshot must carry exactly header+cert.
	cert, _, err := r.ci.ProcessBlock(blks[0])
	if err != nil {
		t.Fatalf("ProcessBlock: %v", err)
	}
	cl := r.client()
	if err := cl.ValidateChain(&blks[0].Header, cert); err != nil {
		t.Fatalf("ValidateChain: %v", err)
	}
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	legacy := chash.NewEncoder(len(snap))
	legacy.PutBytes(blks[0].Header.Marshal())
	legacy.PutBytes(cert.Marshal())
	if !bytes.Equal(snap, legacy.Bytes()) {
		t.Fatal("single-block snapshot is not byte-identical to the pre-segment format")
	}

	// Segment tip: snapshot must round-trip through Restore's verification.
	seg, _, err := r.ci.ProcessSegment(blks[1:])
	if err != nil {
		t.Fatalf("ProcessSegment: %v", err)
	}
	if err := cl.ValidateSegment(seg); err != nil {
		t.Fatalf("ValidateSegment: %v", err)
	}
	snap, err = cl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored := r.client()
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	hdr, _ := restored.Latest()
	if hdr == nil || hdr.Hash() != seg.Tip().Hash() {
		t.Fatal("restored client does not sit on the segment tip")
	}
	// Corrupting signed content (a header byte) must fail restore. The very
	// tail of the snapshot is a high-level interlink hash — an unsigned
	// routing hint — so the probe targets the header region, not the tail.
	snap[10] ^= 0xff
	if err := r.client().Restore(snap); err == nil {
		t.Fatal("corrupted segment snapshot accepted")
	}
	snap[10] ^= 0xff
	if err := r.client().Restore(snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated segment snapshot accepted")
	}
}

// TestBootstrapSublinear is the sublinear catch-up regression: on a
// 10 000-block chain certified in 16-block segments, a stale client must
// reach the tip from the genesis anchor with no fetch beyond the tip, the
// analytic model must match the measured walk exactly, a mid-chain anchor
// must converge in O(log n) certificate fetches, a forged interlink pointer
// must be refuted on the way down to a mid-chain anchor, and a wrong genesis
// hash must be refuted by the measurement check.
func TestBootstrapSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-block chain")
	}
	const chainLen, segBlocks = 10_000, 16
	r := newSegRig(t, "segment-bootstrap-v1")
	blks := r.mineEmpty(t, chainLen)
	for i := 0; i < chainLen; i += segBlocks {
		if _, _, err := r.ci.ProcessSegment(blks[i : i+segBlocks]); err != nil {
			t.Fatalf("ProcessSegment at %d: %v", i, err)
		}
	}
	tip := r.ci.LatestSegment()
	if tip == nil || tip.End() != chainLen {
		t.Fatalf("no tip segment at height %d", chainLen)
	}
	genesis := r.ci.Node().Store().Genesis()

	fetched := 0
	fetch := func(height uint64) (*SegmentCert, error) {
		fetched++
		seg := r.ci.SegmentCovering(height)
		if seg == nil {
			return nil, fmt.Errorf("%w: height %d", ErrSegmentUnavailable, height)
		}
		return seg, nil
	}

	cl := r.client()
	fetches, err := cl.BootstrapSublinear(fetch, tip, 0, genesis)
	if err != nil {
		t.Fatalf("BootstrapSublinear: %v", err)
	}
	if fetches != fetched {
		t.Fatalf("reported %d fetches, fetcher saw %d", fetches, fetched)
	}
	if model := ModelBootstrapFetches(chainLen, segBlocks); fetches != model {
		t.Fatalf("measured %d fetches, model predicts %d — model drifted from the walk", fetches, model)
	}
	hdr, _ := cl.Latest()
	if hdr == nil || hdr.Height != chainLen {
		t.Fatal("bootstrap did not adopt the tip")
	}
	// The serving side's walk is the client's walk: the same hops, in order.
	path := r.ci.BootstrapPath(r.ci.LatestSegment(), 0)
	if len(path)-1 != fetches || path[0] != tip {
		t.Fatalf("BootstrapPath has %d hops (tip first: %v), the client fetched %d", len(path)-1, path[0] == tip, fetches)
	}
	if hops, err := r.client().BootstrapFromPath(path, 0, genesis); err != nil || hops != fetches {
		t.Fatalf("BootstrapFromPath = %d, %v; want %d hops", hops, err, fetches)
	}

	// Bootstrapping from a mid-chain trusted anchor walks the interlink and
	// converges. The sublinear bound: c·log2(n) with c=3 — generous against
	// the walk's ≤ log2(n)+1 design bound, tight against the linear
	// follower's n/segBlocks = 625 validations.
	logN := bits.Len64(chainLen) // ⌈log2⌉+ for n=10k: 14
	anchorBlk, err := r.ci.Node().Store().AtHeight(7_321)
	if err != nil {
		t.Fatalf("AtHeight: %v", err)
	}
	midFetches, err := r.client().BootstrapSublinear(fetch, tip, 7_321, anchorBlk.Hash())
	if err != nil {
		t.Fatalf("BootstrapSublinear(mid anchor): %v", err)
	}
	if midFetches == 0 || midFetches > 3*logN {
		t.Fatalf("mid-anchor bootstrap took %d fetches, want in (0, %d]", midFetches, 3*logN)
	}
	if midPath := r.ci.BootstrapPath(r.ci.LatestSegment(), 7_321); len(midPath)-1 != midFetches {
		t.Fatalf("BootstrapPath(7321) has %d hops, the client fetched %d", len(midPath)-1, midFetches)
	}

	// A forged high-level interlink pointer is refuted at the first hop that
	// uses it on the walk to a mid-chain anchor: the fetched segment's
	// certified header hash disagrees.
	forged := &SegmentCert{
		Headers:   tip.Headers,
		Cert:      tip.Cert,
		Interlink: append([]chash.Hash(nil), tip.Interlink...),
	}
	for l := 1; l < len(forged.Interlink); l++ {
		forged.Interlink[l] = chash.Leaf([]byte("forged-pointer"))
	}
	if _, err := r.client().BootstrapSublinear(fetch, forged, 7_321, anchorBlk.Hash()); !errors.Is(err, ErrBadInterlink) {
		t.Fatalf("forged interlink: want ErrBadInterlink, got %v", err)
	}

	// A wrong genesis hash is not the one the pinned measurement binds: it
	// must be refuted, not adopted.
	if _, err := r.client().BootstrapSublinear(fetch, tip, 0, chash.Leaf([]byte("wrong-genesis"))); !errors.Is(err, ErrBadInterlink) {
		t.Fatalf("wrong anchor: want ErrBadInterlink, got %v", err)
	}
}

// TestGenesisBootstrapVerifiesOneCertificate pins the constant-cost
// bootstrap as a count: at chain lengths 16, 512 and 10 000, a fresh client
// anchored at genesis verifies the tip segment's certificate and no other —
// its fetcher is never called, the serving path is the tip alone, and the
// model agrees.
func TestGenesisBootstrapVerifiesOneCertificate(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-block chain")
	}
	const segBlocks = 16
	r := newSegRig(t, "segment-genesis-bootstrap-v1")
	genesis := r.ci.Node().Store().Genesis()
	blks := r.mineEmpty(t, 10_000)
	certified := 0
	for _, chainLen := range []int{16, 512, 10_000} {
		for ; certified < chainLen; certified += segBlocks {
			if _, _, err := r.ci.ProcessSegment(blks[certified : certified+segBlocks]); err != nil {
				t.Fatalf("ProcessSegment at %d: %v", certified, err)
			}
		}
		tip := r.ci.LatestSegment()
		fetched := 0
		fetch := func(height uint64) (*SegmentCert, error) {
			fetched++
			return r.ci.SegmentCovering(height), nil
		}
		cl := r.client()
		fetches, err := cl.BootstrapSublinear(fetch, tip, 0, genesis)
		if err != nil {
			t.Fatalf("chain %d: BootstrapSublinear: %v", chainLen, err)
		}
		if fetches != 0 || fetched != 0 {
			t.Fatalf("chain %d: verified %d segment certificates beyond the tip (fetcher called %d times), want 0", chainLen, fetches, fetched)
		}
		if model := ModelBootstrapFetches(uint64(chainLen), segBlocks); model != fetches {
			t.Fatalf("chain %d: model says %d hops, the walk took %d", chainLen, model, fetches)
		}
		if hdr, _ := cl.Latest(); hdr == nil || hdr.Height != uint64(chainLen) {
			t.Fatalf("chain %d: the client did not adopt the tip", chainLen)
		}
		if path := r.ci.BootstrapPath(tip, 0); len(path) != 1 || path[0] != tip {
			t.Fatalf("chain %d: the genesis path has %d segments, want the tip alone", chainLen, len(path))
		}
	}
}

// TestGenesisBootstrapRefusals: the genesis shortcut trusts the tip
// certificate only under the pinned measurement, and only for the genesis
// that measurement binds. A tip certified by an enclave running a foreign
// program, a genesis hash the measurement does not bind, and a genesis path
// padded with real, valid segments are each refused with no fetch, and the
// client's Latest does not move.
func TestGenesisBootstrapRefusals(t *testing.T) {
	const segBlocks = 4
	r := newSegRig(t, "segment-genesis-refusals-v1")
	genesis := r.ci.Node().Store().Genesis()
	blks := r.mineEmpty(t, 8*segBlocks)
	for i := 0; i < len(blks); i += segBlocks {
		if _, _, err := r.ci.ProcessSegment(blks[i : i+segBlocks]); err != nil {
			t.Fatalf("ProcessSegment at %d: %v", i, err)
		}
	}
	tip := r.ci.LatestSegment()
	fetched := 0
	fetch := func(height uint64) (*SegmentCert, error) {
		fetched++
		return r.ci.SegmentCovering(height), nil
	}
	padded := []*SegmentCert{tip, r.ci.SegmentCovering(tip.Start() - 1), r.ci.SegmentCovering(1)}
	// A client pinned to another program's measurement: the chain's own
	// certificates are foreign to it.
	foreign := NewSuperlightClient(r.auth.PublicKey(), enclave.Measure([]byte("another-program")), r.params)

	cases := []struct {
		name string
		cl   *SuperlightClient
		run  func(cl *SuperlightClient) (int, error)
	}{
		{"foreign measurement", foreign, func(cl *SuperlightClient) (int, error) {
			return cl.BootstrapSublinear(fetch, tip, 0, genesis)
		}},
		{"unbound genesis", r.client(), func(cl *SuperlightClient) (int, error) {
			return cl.BootstrapSublinear(fetch, tip, 0, chash.Leaf([]byte("another-genesis")))
		}},
		{"padded path", r.client(), func(cl *SuperlightClient) (int, error) {
			return cl.BootstrapFromPath(padded, 0, genesis)
		}},
	}
	for _, tc := range cases {
		fetched = 0
		fetches, err := tc.run(tc.cl)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if fetches != 0 || fetched != 0 {
			t.Fatalf("%s: %d segments fetched (fetcher called %d times), want 0", tc.name, fetches, fetched)
		}
		if hdr, _ := tc.cl.Latest(); hdr != nil {
			t.Fatalf("%s: a refused bootstrap adopted height %d", tc.name, hdr.Height)
		}
	}
	// Each segment of the padded path verifies on its own: only the padding
	// is at fault.
	for _, seg := range padded {
		if err := r.client().ValidateSegment(seg); err != nil {
			t.Fatalf("padded path segment [%d,%d]: %v", seg.Start(), seg.End(), err)
		}
	}
}

// TestBootstrapPath: the serving side's walk matches the model and the
// client at every chain length of a short K=4 chain, and an untrusted anchor
// from just below the tip's start upward yields the tip alone (MaxUint64
// included, with no wrap-around). Tampered paths are refuted over the wire
// by TestBootstrapRelayLiesRefuted.
func TestBootstrapPath(t *testing.T) {
	const segBlocks = 4
	r := newSegRig(t, "segment-bootstrap-path-v1")
	if path := r.ci.BootstrapPath(r.ci.LatestSegment(), 0); path != nil {
		t.Fatalf("BootstrapPath before any segment = %d segments, want nil", len(path))
	}
	genesis := r.ci.Node().Store().Genesis()
	blks := r.mineEmpty(t, 96)
	for i := 0; i < len(blks); i += segBlocks {
		if _, _, err := r.ci.ProcessSegment(blks[i : i+segBlocks]); err != nil {
			t.Fatalf("ProcessSegment at %d: %v", i, err)
		}
		chainLen := uint64(i + segBlocks)
		path := r.ci.BootstrapPath(r.ci.LatestSegment(), 0)
		model := ModelBootstrapFetches(chainLen, segBlocks)
		if len(path)-1 != model {
			t.Fatalf("height %d: BootstrapPath has %d hops, model says %d", chainLen, len(path)-1, model)
		}
		if hops, err := r.client().BootstrapFromPath(path, 0, genesis); err != nil || hops != model {
			t.Fatalf("height %d: BootstrapFromPath = %d, %v; want %d", chainLen, hops, err, model)
		}
	}
	tip := r.ci.LatestSegment()
	for _, anchor := range []uint64{tip.Start() - 1, tip.Start(), tip.End(), tip.End() + 1, math.MaxUint64} {
		if path := r.ci.BootstrapPath(tip, anchor); len(path) != 1 || path[0] != tip {
			t.Fatalf("anchor %d: BootstrapPath has %d segments, want the tip alone", anchor, len(path))
		}
	}
}

// TestModelBootstrapFetchesScaling pins the model's shape at the scales
// BENCH_certify.json reports and beyond: a genesis bootstrap takes 0 hops at
// every chain length and segment size — the constant-cost claim.
func TestModelBootstrapFetchesScaling(t *testing.T) {
	for _, n := range []uint64{0, 1, 16, 1_000, 10_000, 100_000, math.MaxUint64} {
		for _, k := range []int{0, 1, 16, 4096} {
			if got := ModelBootstrapFetches(n, k); got != 0 {
				t.Fatalf("ModelBootstrapFetches(%d, %d) = %d, want 0", n, k, got)
			}
		}
	}
}
