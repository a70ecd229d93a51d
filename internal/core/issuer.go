package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/enclave"
	"dcert/internal/node"
	"dcert/internal/statedb"
)

// Issuer is the SGX-enabled Certificate Issuer (CI) of §3.2: a full node
// equipped with an enclave that certifies every block (Alg. 1) and,
// optionally, authenticated indexes (Alg. 4 / Alg. 5).
//
// Issuer is not safe for concurrent use: blocks are certified strictly in
// chain order.
type Issuer struct {
	node   *node.FullNode
	encl   *enclave.Enclave
	prog   *TrustedProgram
	report *attest.Report

	// pipelining guards against two concurrent Pipelines on one issuer.
	pipelining atomic.Bool

	// met holds the instrumentation hooks (all no-ops until Instrument).
	met issuerObs

	mu             sync.RWMutex
	lastCertAt     time.Time
	lastCert       *Certificate
	indexes        map[string]indexTip // index → last certified root and its cert
	lastSegHeaders []*chain.Header     // headers under lastCert's digest
	segs           []*SegmentCert      // ordered certified-segment history
}

// CostBreakdown reports where one certificate construction spent its time,
// matching the Fig. 8 decomposition.
type CostBreakdown struct {
	// OutsideExec is the untrusted pre-processing time: transaction
	// execution and read/write-set computation (comp_data_set).
	OutsideExec float64
	// OutsideProof is the untrusted Merkle-proof generation time
	// (get_update_proof).
	OutsideProof float64
	// InsideExec is the real execution time of trusted code.
	InsideExec float64
	// InsideOverhead is the simulated SGX overhead (transitions, copies,
	// compute factor, paging).
	InsideOverhead float64
}

// Total is the end-to-end construction time in seconds.
func (c CostBreakdown) Total() float64 {
	return c.OutsideExec + c.OutsideProof + c.InsideExec + c.InsideOverhead
}

// NewIssuer initializes a CI: the trusted program is loaded into an enclave
// on the given platform, generates its sealed key pair, and obtains the
// attestation report rep from the authority (§3.3 initialization).
func NewIssuer(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel) (*Issuer, error) {
	return newIssuer(n, authority, platform, cost, nil)
}

// NewIssuerFromSeed is NewIssuer with a deterministically derived sealed
// enclave key, for equivalence testing: two issuers built from the same seed
// (on the same seeded platform/authority) emit byte-identical certificates.
func NewIssuerFromSeed(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel, seed []byte) (*Issuer, error) {
	if len(seed) == 0 {
		return nil, fmt.Errorf("core: issuer seed must be non-empty")
	}
	return newIssuer(n, authority, platform, cost, seed)
}

func newIssuer(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel, seed []byte) (*Issuer, error) {
	genesis, err := n.Store().Get(n.Store().Genesis())
	if err != nil {
		return nil, fmt.Errorf("core: issuer genesis: %w", err)
	}
	prog := NewTrustedProgram(genesis.Hash(), authority.PublicKey(), n.Params(), n.Registry())
	var encl *enclave.Enclave
	if seed != nil {
		encl, err = enclave.NewFromSeed(prog.ID(), platform, cost, seed)
	} else {
		encl, err = enclave.New(prog.ID(), platform, cost)
	}
	if err != nil {
		return nil, fmt.Errorf("core: issuer enclave: %w", err)
	}
	quote, err := encl.Quote()
	if err != nil {
		return nil, fmt.Errorf("core: issuer quote: %w", err)
	}
	report, err := authority.Attest(quote)
	if err != nil {
		return nil, fmt.Errorf("core: issuer attestation: %w", err)
	}
	return &Issuer{
		node:    n,
		encl:    encl,
		prog:    prog,
		report:  report,
		indexes: make(map[string]indexTip),
	}, nil
}

// Node exposes the CI's full-node core.
func (ci *Issuer) Node() *node.FullNode {
	return ci.node
}

// Enclave exposes the CI's enclave (for cost accounting in benchmarks).
func (ci *Issuer) Enclave() *enclave.Enclave {
	return ci.encl
}

// Program exposes the trusted program (to register index updaters before
// certification starts).
func (ci *Issuer) Program() *TrustedProgram {
	return ci.prog
}

// Report returns the CI's attestation report.
func (ci *Issuer) Report() *attest.Report {
	return ci.report
}

// Measurement returns the CI enclave's measurement, which superlight
// clients pin.
func (ci *Issuer) Measurement() chash.Hash {
	return ci.encl.Measurement()
}

// LatestCert returns the newest block certificate (nil before the first
// certified block).
func (ci *Issuer) LatestCert() *Certificate {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.lastCert
}

// certifiedTip atomically snapshots the ⟨tip block, tip certificate⟩ pair.
// Reading the two separately (the pre-pipeline code did) races against a
// concurrent adopt: the tip can advance between the reads, pairing block i
// with cert i-1 — which corrupts restart records and makes the recursive Ecall
// verify the wrong predecessor. All readers that need a consistent pair go
// through here; adopt publishes both under the same lock.
func (ci *Issuer) certifiedTip() (*chain.Block, *Certificate) {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.node.Tip(), ci.lastCert
}

// newCert assembles a certificate from the enclave's outputs (Alg. 1
// lines 5-7).
func (ci *Issuer) newCert(digest chash.Hash, sig []byte) *Certificate {
	return &Certificate{
		PubKey: ci.encl.PublicKey().Marshal(),
		Report: ci.report,
		Digest: digest,
		Sig:    sig,
	}
}

// prepare runs the untrusted pre-processing of Alg. 1 lines 2-3 and returns
// the update proof plus the block's write set.
func (ci *Issuer) prepare(blk *chain.Block, bd *CostBreakdown) (*statedb.UpdateProof, *statedb.ExecResult, error) {
	execTimer := startTimer()
	res, err := ci.node.State().ExecuteBlock(ci.node.Registry(), blk.Txs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: comp_data_set: %w", err)
	}
	bd.OutsideExec += execTimer()

	proofTimer := startTimer()
	proof, err := ci.node.State().UpdateProofFor(res)
	if err != nil {
		return nil, nil, fmt.Errorf("core: get_update_proof: %w", err)
	}
	bd.OutsideProof += proofTimer()
	return proof, res, nil
}

// ecallInputSize is the bytes marshalled through the enclave boundary by a
// block-certification Ecall: the headers the previous certificate covers (the
// genesis header when there is none), every block with its update proof, and
// the previous certificate.
func ecallInputSize(prev *chain.Block, prevHeaders []*chain.Header, prevCert *Certificate, blks []*chain.Block, proofs []*statedb.UpdateProof) int {
	if len(prevHeaders) == 0 {
		prevHeaders = []*chain.Header{&prev.Header}
	}
	size := 0
	for _, h := range prevHeaders {
		size += h.EncodedSize()
	}
	for i := range blks {
		size += len(blks[i].Marshal()) + proofs[i].EncodedSize()
	}
	if prevCert != nil {
		size += prevCert.EncodedSize()
	}
	return size
}

// ProcessBlock runs Alg. 1 (gen_cert) for a block extending the CI's tip:
// ProcessSegment of one block, whose certificate is byte for byte the
// per-block certificate (SegmentDigest of one header is BlockDigest). The
// returned breakdown feeds Figs. 8-9.
func (ci *Issuer) ProcessBlock(blk *chain.Block) (*Certificate, CostBreakdown, error) {
	seg, bd, err := ci.ProcessSegment([]*chain.Block{blk})
	if err != nil {
		return nil, bd, err
	}
	return seg.Cert, bd, nil
}

// ecallSigGen runs the one block-certification Ecall (Alg. 1 line 4) for
// prepared blocks extending the certified tip, accounting its cost. The
// recursion base — tip block, its certificate and the headers that
// certificate covers — is read here as one consistent snapshot: adopt and
// ResumeIssuer publish all three under the same lock.
func (ci *Issuer) ecallSigGen(blks []*chain.Block, proofs []*statedb.UpdateProof, bd *CostBreakdown) ([]byte, error) {
	ci.mu.RLock()
	prev, prevHeaders, prevCert := ci.node.Tip(), ci.lastSegHeaders, ci.lastCert
	ci.mu.RUnlock()
	var sig []byte
	before := ci.encl.Stats()
	err := ci.encl.Ecall(ecallInputSize(prev, prevHeaders, prevCert, blks, proofs), func(ctx *enclave.Context) error {
		var err error
		sig, err = ci.prog.EcallSegmentSigGen(ctx, prev, prevHeaders, prevCert, blks, proofs)
		return err
	})
	after := ci.encl.Stats()
	bd.InsideExec += (after.ExecTime - before.ExecTime).Seconds()
	bd.InsideOverhead += (after.OverheadTime - before.OverheadTime).Seconds()
	ci.met.ecallsBlock.Inc()
	ci.met.enclaveBlockSec.Observe((after.InsideTime() - before.InsideTime()).Seconds())
	if err != nil {
		return nil, fmt.Errorf("core: ecall_sig_gen: %w", err)
	}
	return sig, nil
}

// adopt appends the certified blocks to the store and publishes their
// certificate as one atomic transition (Alg. 1 lines 5-7), so concurrent
// readers (LatestBundle, certifiedTip) see either the old tip
// with the old certificate or the new tip with the new one — never a new tip
// paired with a stale certificate, never a partially adopted segment. The
// caller has already committed the blocks' state writes.
func (ci *Issuer) adopt(blks []*chain.Block, cert *Certificate) (*SegmentCert, error) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	for _, blk := range blks {
		if _, err := ci.node.Store().Add(blk); err != nil {
			return nil, fmt.Errorf("core: advance chain: %w", err)
		}
		ci.met.blocksCertified.Inc()
	}
	ci.lastCert = cert
	ci.lastCertAt = time.Now()
	return ci.recordSegmentLocked(segmentHeaders(blks), cert), nil
}
