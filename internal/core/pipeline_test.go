package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/enclave"
	"dcert/internal/node"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// newSeededIssuer builds an issuer whose entire key material (attestation
// authority, platform quoting key, sealed enclave key) derives from one seed:
// two issuers built from the same seed emit byte-identical certificates for
// the same blocks, which is what lets the equivalence tests compare the
// sequential and pipelined engines byte for byte.
func newSeededIssuer(t testing.TB, kind workload.Kind, seed string) *Issuer {
	t.Helper()
	authority, err := attest.NewAuthorityFromSeed([]byte(seed))
	if err != nil {
		t.Fatalf("NewAuthorityFromSeed: %v", err)
	}
	platform, err := authority.NewPlatformFromSeed([]byte(seed))
	if err != nil {
		t.Fatalf("NewPlatformFromSeed: %v", err)
	}
	reg := vm.NewRegistry()
	if err := workload.Register(reg, kind, 3); err != nil {
		t.Fatalf("Register: %v", err)
	}
	params := consensus.Params{Difficulty: 4}
	genesis, db, err := node.BuildGenesis(node.GenesisConfig{Time: 1, Consensus: params})
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	n, err := node.NewFullNode(genesis, db, reg, params)
	if err != nil {
		t.Fatalf("NewFullNode: %v", err)
	}
	ci, err := NewIssuerFromSeed(n, authority, platform, enclave.CostModel{}, []byte(seed))
	if err != nil {
		t.Fatalf("NewIssuerFromSeed: %v", err)
	}
	return ci
}

// mockIndexJobs returns a PipelineConfig.IndexJobs callback that prepares
// mock-index jobs, tracking each index's root recursion across blocks the
// way an SP replica would (the callback runs in block order).
func mockIndexJobs(names []string) func(blk *chain.Block, writes map[string][]byte) ([]*IndexJob, error) {
	roots := make(map[string]chash.Hash, len(names))
	return func(blk *chain.Block, writes map[string][]byte) ([]*IndexJob, error) {
		jobs := make([]*IndexJob, len(names))
		for i, name := range names {
			newRoot := mockIndexRoot(roots[name], blk, writes)
			jobs[i] = &IndexJob{Updater: name, NewRoot: newRoot}
			roots[name] = newRoot
		}
		return jobs, nil
	}
}

// mineBlocks produces a deterministic block stream once; every engine under
// comparison certifies the same bytes.
func mineBlocks(t testing.TB, kind workload.Kind, n, txs int) []*chain.Block {
	t.Helper()
	e := newEnv(t, kind, enclave.CostModel{})
	blks := make([]*chain.Block, n)
	for i := range blks {
		blks[i] = e.mine(t, txs)
	}
	return blks
}

// TestPipelineEquivalence is the core correctness property of the one
// certification path: for any worker count, under the default policy and an
// explicit K=1, the pipeline must emit byte-identical block certificates,
// byte-identical index certificates, and the same final state root as the
// sequential ProcessBlockHierarchical loop — and so must ProcessSegment of one
// block per height.
func TestPipelineEquivalence(t *testing.T) {
	const seed = "equivalence-v1"
	const numBlocks, txsPerBlock = 6, 8
	indexNames := []string{"mock-a", "mock-b"}
	blks := mineBlocks(t, workload.KVStore, numBlocks, txsPerBlock)

	type run struct {
		certBytes [][]byte
		idxBytes  [][][]byte // block → index → cert bytes
		finalRoot chash.Hash
		tipHeight uint64
	}

	register := func(ci *Issuer) {
		for _, name := range indexNames {
			if err := ci.Program().RegisterUpdater(mockIndex{name: name}); err != nil {
				t.Fatalf("RegisterUpdater: %v", err)
			}
		}
	}
	snapshot := func(ci *Issuer, certs []*Certificate, idx [][]*Certificate) run {
		var r run
		for _, c := range certs {
			r.certBytes = append(r.certBytes, c.Marshal())
		}
		for _, blkCerts := range idx {
			var row [][]byte
			for _, c := range blkCerts {
				row = append(row, c.Marshal())
			}
			r.idxBytes = append(r.idxBytes, row)
		}
		root, err := ci.Node().State().Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		r.finalRoot = root
		r.tipHeight = ci.Node().Tip().Header.Height
		return r
	}

	// Reference: the sequential hierarchical engine.
	seq := newSeededIssuer(t, workload.KVStore, seed)
	register(seq)
	seqJobs := mockIndexJobs(indexNames)
	var seqCerts []*Certificate
	var seqIdx [][]*Certificate
	for _, blk := range blks {
		res, err := seq.Node().State().ExecuteBlock(seq.Node().Registry(), blk.Txs)
		if err != nil {
			t.Fatalf("ExecuteBlock: %v", err)
		}
		jobs, err := seqJobs(blk, res.WriteSet)
		if err != nil {
			t.Fatalf("jobs: %v", err)
		}
		blkCert, idxCerts, _, err := seq.ProcessBlockHierarchical(blk, jobs)
		if err != nil {
			t.Fatalf("ProcessBlockHierarchical: %v", err)
		}
		seqCerts = append(seqCerts, blkCert)
		seqIdx = append(seqIdx, idxCerts)
	}
	want := snapshot(seq, seqCerts, seqIdx)
	if want.tipHeight != numBlocks {
		t.Fatalf("sequential tip = %d", want.tipHeight)
	}

	// compare holds a run to the reference; a run without index fan-out
	// (idxBytes nil) is compared on block certificates and state only.
	compare := func(label string, got run) {
		t.Helper()
		if got.tipHeight != want.tipHeight {
			t.Fatalf("%s: tip %d, want %d", label, got.tipHeight, want.tipHeight)
		}
		if got.finalRoot != want.finalRoot {
			t.Fatalf("%s: final state root %s, want %s", label, got.finalRoot, want.finalRoot)
		}
		if len(got.certBytes) != len(want.certBytes) {
			t.Fatalf("%s: %d block certs, want %d", label, len(got.certBytes), len(want.certBytes))
		}
		for i := range want.certBytes {
			if !bytes.Equal(got.certBytes[i], want.certBytes[i]) {
				t.Fatalf("%s: block cert %d differs from sequential", label, i)
			}
		}
		if got.idxBytes == nil {
			return
		}
		for i := range want.idxBytes {
			if len(got.idxBytes[i]) != len(want.idxBytes[i]) {
				t.Fatalf("%s: block %d index cert count", label, i)
			}
			for j := range want.idxBytes[i] {
				if !bytes.Equal(got.idxBytes[i][j], want.idxBytes[i][j]) {
					t.Fatalf("%s: index cert %d/%d differs from sequential", label, i, j)
				}
			}
		}
	}

	// ProcessSegment of one block per height is the same certificate chain.
	oneBlock := newSeededIssuer(t, workload.KVStore, seed)
	var oneBlockCerts []*Certificate
	for _, blk := range blks {
		seg, _, err := oneBlock.ProcessSegment([]*chain.Block{blk})
		if err != nil {
			t.Fatalf("ProcessSegment(height %d): %v", blk.Header.Height, err)
		}
		oneBlockCerts = append(oneBlockCerts, seg.Cert)
	}
	compare("one-block segments", snapshot(oneBlock, oneBlockCerts, nil))

	// The pipeline, under its default policy and under an explicit K=1.
	for _, pol := range []*SegmentPolicy{nil, {MaxBlocks: 1}} {
		for _, workers := range []int{1, 4, 8} {
			label := fmt.Sprintf("segment=%v workers=%d", pol != nil, workers)
			pi := newSeededIssuer(t, workload.KVStore, seed)
			register(pi)
			before := pi.Enclave().Stats().Ecalls
			results, err := pi.ProcessBlocksPipelined(blks, PipelineConfig{
				Workers:   workers,
				IndexJobs: mockIndexJobs(indexNames),
				Segment:   pol,
			})
			if err != nil {
				t.Fatalf("%s: pipeline: %v", label, err)
			}
			if len(results) != numBlocks {
				t.Fatalf("%s: %d results", label, len(results))
			}
			// One block Ecall per block, plus one per index.
			if got, want := pi.Enclave().Stats().Ecalls-before, uint64(numBlocks*(1+len(indexNames))); got != want {
				t.Fatalf("%s: %d Ecalls, want %d", label, got, want)
			}
			var certs []*Certificate
			var idx [][]*Certificate
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("%s: block %d: %v", label, i, res.Err)
				}
				if res.Block.Hash() != blks[i].Hash() {
					t.Fatalf("%s: result %d out of order", label, i)
				}
				certs = append(certs, res.Cert)
				idx = append(idx, res.IndexCerts)
			}
			compare(label, snapshot(pi, certs, idx))
		}
	}
}

// TestPipelineErrorBoundary: one bad transaction signature in block j of n
// fails that block in the verify stage. Blocks before it certify (under
// MaxBlocks 4 the open partial batch flushes at the boundary), block j carries
// the verify error, every later block aborts, and the replica stands at the
// last certified block with its state root.
func TestPipelineErrorBoundary(t *testing.T) {
	const n, j = 7, 5 // blks[j] is bad: heights 1..j certify
	for _, maxBlocks := range []int{1, 4} {
		e := newEnv(t, workload.KVStore, enclave.CostModel{})
		var blks []*chain.Block
		for i := 0; i < n; i++ {
			blks = append(blks, e.mine(t, 5))
		}
		bad := &chain.Block{Header: blks[j].Header, Txs: append([]*chain.Transaction(nil), blks[j].Txs...)}
		forged := *bad.Txs[2]
		forged.Signature = append([]byte(nil), forged.Signature...)
		forged.Signature[len(forged.Signature)-1] ^= 1
		bad.Txs[2] = &forged
		var err error
		if bad.Header.TxRoot, err = chain.ComputeTxRoot(bad.Txs); err != nil {
			t.Fatalf("ComputeTxRoot: %v", err)
		}
		if err := consensus.Seal(e.params, &bad.Header); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		blks[j] = bad

		before := e.issuer.Enclave().Stats().Ecalls
		results, err := e.issuer.ProcessBlocksPipelined(blks, PipelineConfig{
			Workers: 2,
			Segment: &SegmentPolicy{MaxBlocks: maxBlocks},
		})
		if !errors.Is(err, chain.ErrBadTx) {
			t.Fatalf("K=%d: pipeline error %v, want the signature failure", maxBlocks, err)
		}
		if len(results) != n {
			t.Fatalf("K=%d: %d results, want %d", maxBlocks, len(results), n)
		}
		for i, res := range results {
			switch {
			case i < j:
				if res.Err != nil || res.Cert == nil {
					t.Fatalf("K=%d: block %d before the bad one: %v", maxBlocks, i, res.Err)
				}
				if h := blks[i].Header.Height; res.Segment.HeaderAt(h) == nil {
					t.Fatalf("K=%d: block %d not covered by its segment", maxBlocks, i)
				}
			case i == j:
				if !errors.Is(res.Err, chain.ErrBadTx) || errors.Is(res.Err, ErrPipelineAborted) {
					t.Fatalf("K=%d: bad block carries %v, want the verify error", maxBlocks, res.Err)
				}
			default:
				if !errors.Is(res.Err, ErrPipelineAborted) {
					t.Fatalf("K=%d: block %d after the bad one carries %v, want ErrPipelineAborted", maxBlocks, i, res.Err)
				}
			}
		}
		// j good blocks in batches of at most maxBlocks.
		if got, want := e.issuer.Enclave().Stats().Ecalls-before, uint64((j+maxBlocks-1)/maxBlocks); got != want {
			t.Fatalf("K=%d: %d Ecalls, want %d", maxBlocks, got, want)
		}
		tip := e.issuer.Node().Tip()
		if tip.Hash() != blks[j-1].Hash() {
			t.Fatalf("K=%d: tip at height %d, want %d", maxBlocks, tip.Header.Height, j)
		}
		root, err := e.issuer.Node().State().Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		if root != tip.Header.StateRoot {
			t.Fatalf("K=%d: state root %s does not match certified tip %s", maxBlocks, root, tip.Header.StateRoot)
		}
	}
}

// TestPipelineRejectsBadBlock: a block the enclave rejects mid-stream must
// fail that block and every later one, and roll the replica back to the last
// certified block — no speculative writes survive.
func TestPipelineAbortRollsBackSpeculation(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	var blks []*chain.Block
	for i := 0; i < 5; i++ {
		blks = append(blks, e.mine(t, 5))
	}
	// Corrupt block 3's claimed state root: verify and execution pass (the
	// seal is re-mined), but the enclave's replay must reject it.
	bad := *blks[2]
	bad.Header.StateRoot = chash.Leaf([]byte("speculative poison"))
	if err := consensus.Seal(e.params, &bad.Header); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	blks[2] = &bad

	results, err := e.issuer.ProcessBlocksPipelined(blks, PipelineConfig{Workers: 2})
	if err == nil {
		t.Fatal("pipeline must report the failure")
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("blocks before the bad one must certify: %v %v", results[0].Err, results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("bad block must fail")
	}
	for i := 3; i < 5; i++ {
		if results[i].Err == nil {
			t.Fatalf("block %d after failure must not certify", i)
		}
	}
	// The replica sits exactly at the last certified block: height 2, with
	// state root matching that block's header (all speculation undone).
	tip := e.issuer.Node().Tip()
	if tip.Header.Height != 2 {
		t.Fatalf("tip height %d after rollback, want 2", tip.Header.Height)
	}
	root, err := e.issuer.Node().State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root != tip.Header.StateRoot {
		t.Fatalf("state root %s does not match certified tip %s after rollback", root, tip.Header.StateRoot)
	}
	// And the issuer keeps working sequentially from there.
	if _, _, err := e.issuer.ProcessBlock(blks[3]); err == nil {
		t.Fatal("stale block 4 must not certify on top of height 2")
	}
}

// TestPipelineAbortMidStream aborts a healthy pipeline and checks the replica
// lands on a certified prefix with no speculative residue.
func TestPipelineAbortMidStream(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	var blks []*chain.Block
	for i := 0; i < 6; i++ {
		blks = append(blks, e.mine(t, 5))
	}
	pl, err := NewPipeline(e.issuer, PipelineConfig{Workers: 2})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	var results []*PipelineResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for res := range pl.Results() {
			results = append(results, res)
		}
	}()
	for i, blk := range blks {
		if err := pl.Submit(blk); err != nil {
			t.Errorf("Submit(%d): %v", i, err)
		}
		if i == 2 {
			pl.Abort()
			break
		}
	}
	wg.Wait()
	if err := pl.Wait(); !errors.Is(err, ErrPipelineAborted) {
		t.Fatalf("want ErrPipelineAborted, got %v", err)
	}
	if err := pl.Submit(blks[4]); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("Submit after abort: %v", err)
	}
	tip := e.issuer.Node().Tip()
	root, err := e.issuer.Node().State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if root != tip.Header.StateRoot {
		t.Fatalf("state root %s does not match certified tip %s after abort", root, tip.Header.StateRoot)
	}
	// Every certified prefix block verifies; the issuer resumes from the tip.
	for h := tip.Header.Height; h < uint64(len(blks)); h++ {
		if _, _, err := e.issuer.ProcessBlock(blks[h]); err != nil {
			t.Fatalf("resume at height %d: %v", h+1, err)
		}
	}
	if e.issuer.Node().Tip().Header.Height != uint64(len(blks)) {
		t.Fatal("issuer did not resume to the full chain")
	}
}

// TestPipelineExclusive: one pipeline at a time per issuer.
func TestPipelineExclusive(t *testing.T) {
	e := newEnv(t, workload.DoNothing, enclave.CostModel{})
	pl, err := NewPipeline(e.issuer, PipelineConfig{})
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if _, err := NewPipeline(e.issuer, PipelineConfig{}); !errors.Is(err, ErrPipelineBusy) {
		t.Fatalf("want ErrPipelineBusy, got %v", err)
	}
	pl.Abort()
	pl2, err := NewPipeline(e.issuer, PipelineConfig{})
	if err != nil {
		t.Fatalf("NewPipeline after drain: %v", err)
	}
	pl2.Abort()
}

// TestCheckpointCertConsistency is the regression test for the tip/cert read
// skew: an accessor that read the store tip and the latest certificate
// without a common critical section let a concurrent ProcessBlock advance
// the tip between the two reads and pair block i's header with block i-1's
// certificate. Readers hammer the issuer's tip accessor (LatestSegment)
// while the issuer certifies; every observed segment must be self-consistent
// (the cert's digest matches its headers) and sit on the node's tip or
// below. Run under -race this also proves the accesses are synchronized.
func TestCheckpointCertConsistency(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	const numBlocks = 12
	var blks []*chain.Block
	for i := 0; i < numBlocks; i++ {
		blks = append(blks, e.mine(t, 2))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violations [2]int
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if seg := e.issuer.LatestSegment(); seg != nil {
					if seg.Cert.Digest != SegmentDigest(seg.Headers) || seg.End() > e.issuer.Node().Tip().Header.Height {
						violations[r]++
						return
					}
				}
			}
		}(r)
	}

	for i, blk := range blks {
		if _, _, err := e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock(%d): %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	for r, v := range violations {
		if v != 0 {
			t.Fatalf("reader %d observed a tip/cert pair from different blocks", r)
		}
	}
}
