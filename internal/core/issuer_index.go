package core

import (
	"fmt"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/enclave"
	"dcert/internal/statedb"
)

// IndexJob is the CI-side input for certifying one authenticated index over
// one block: the claimed new root and the update witness (prepared by the
// index replica or the SP), plus the updater identity. The previous root and
// certificate are tracked by the Issuer itself.
type IndexJob struct {
	// Updater names the registered index-update logic.
	Updater string
	// NewRoot is the claimed post-block index root H_i^idx.
	NewRoot chash.Hash
	// Witness is the update proof π_i^idx.
	Witness []byte
}

// indexTip is what the issuer keeps of one index: its last certified root
// and that root's certificate, the recursion base of the next index Ecall.
type indexTip struct {
	root chash.Hash
	cert *Certificate
}

// indexState returns the tracked (prevRoot, prevCert) pair for an index.
func (ci *Issuer) indexState(name string) (chash.Hash, *Certificate) {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	tip := ci.indexes[name]
	return tip.root, tip.cert
}

// storeIndexCert records a fresh index certificate.
func (ci *Issuer) storeIndexCert(name string, root chash.Hash, cert *Certificate) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	ci.indexes[name] = indexTip{root: root, cert: cert}
}

// ProcessBlockAugmented runs the augmented scheme (Alg. 4) for a block and a
// set of authenticated indexes: one Ecall per index, each of which
// re-verifies the previous augmented certificate, the full block transition,
// and the index update, then signs H(hdr_i ‖ H_i^idx).
//
// The returned certificates are in job order. The block itself advances the
// CI's replica once, after all index certificates succeed.
func (ci *Issuer) ProcessBlockAugmented(blk *chain.Block, jobs []*IndexJob) ([]*Certificate, CostBreakdown, error) {
	var bd CostBreakdown
	if len(jobs) == 0 {
		return nil, bd, fmt.Errorf("core: augmented certification needs at least one index")
	}
	prev, _ := ci.certifiedTip()

	proof, res, err := ci.prepare(blk, &bd)
	if err != nil {
		return nil, bd, err
	}

	certs := make([]*Certificate, 0, len(jobs))
	for _, job := range jobs {
		prevRoot, prevCert := ci.indexState(job.Updater)
		in := &IndexInput{
			Updater:  job.Updater,
			PrevRoot: prevRoot,
			PrevCert: prevCert,
			NewRoot:  job.NewRoot,
			Witness:  job.Witness,
		}
		var sig []byte
		inputSize := ecallInputSize(prev, nil, prevCert, []*chain.Block{blk}, []*statedb.UpdateProof{proof}) + len(job.Witness)
		before := ci.encl.Stats()
		err := ci.encl.Ecall(inputSize, func(ctx *enclave.Context) error {
			var err error
			sig, err = ci.prog.EcallAugmented(ctx, prev, blk, proof, in)
			return err
		})
		after := ci.encl.Stats()
		bd.InsideExec += (after.ExecTime - before.ExecTime).Seconds()
		bd.InsideOverhead += (after.OverheadTime - before.OverheadTime).Seconds()
		ci.met.ecallsIndex.Inc()
		ci.met.enclaveIndexSec.Observe((after.InsideTime() - before.InsideTime()).Seconds())
		if err != nil {
			return nil, bd, fmt.Errorf("core: augmented ecall (%s): %w", job.Updater, err)
		}
		certs = append(certs, ci.newCert(IndexDigest(&blk.Header, job.NewRoot), sig))
	}

	if err := ci.advance(blk, res); err != nil {
		return nil, bd, err
	}
	for i, job := range jobs {
		ci.storeIndexCert(job.Updater, job.NewRoot, certs[i])
	}
	return certs, bd, nil
}

// ProcessBlockHierarchical runs the hierarchical scheme (Alg. 5): first the
// plain block certificate (Alg. 1, one Ecall with full verification), then
// one cheap Ecall per index that verifies the fresh block certificate
// instead of re-executing the block.
//
// It returns the block certificate and the index certificates in job order.
func (ci *Issuer) ProcessBlockHierarchical(blk *chain.Block, jobs []*IndexJob) (*Certificate, []*Certificate, CostBreakdown, error) {
	var bd CostBreakdown
	prev, _ := ci.certifiedTip()

	proof, res, err := ci.prepare(blk, &bd)
	if err != nil {
		return nil, nil, bd, err
	}

	// Line 1: gen_cert — the block certificate.
	blkSig, err := ci.ecallSigGen([]*chain.Block{blk}, []*statedb.UpdateProof{proof}, &bd)
	if err != nil {
		return nil, nil, bd, err
	}
	blkCert := ci.newCert(BlockDigest(&blk.Header), blkSig)

	// Lines 2-18: per-index certification against the block certificate.
	certs := make([]*Certificate, 0, len(jobs))
	for _, job := range jobs {
		cert, err := ci.ecallHierarchicalIndex(prev, blk, blkCert, job, &bd)
		if err != nil {
			return nil, nil, bd, err
		}
		certs = append(certs, cert)
	}

	if _, err := ci.node.State().Commit(res.WriteSet); err != nil {
		return nil, nil, bd, fmt.Errorf("core: advance state: %w", err)
	}
	if _, err := ci.adopt([]*chain.Block{blk}, blkCert); err != nil {
		return nil, nil, bd, err
	}
	for i, job := range jobs {
		ci.storeIndexCert(job.Updater, job.NewRoot, certs[i])
	}
	return blkCert, certs, bd, nil
}

// ecallHierarchicalIndex runs one per-index Ecall of Alg. 5 (the cheap path:
// verify the block certificate, replay the index update from the enclave-
// cached write set) and returns the index certificate. Both the sequential
// hierarchical scheme and the pipeline's index fan-out stage funnel through
// here; the per-index recursion state is read from the issuer's tracking.
func (ci *Issuer) ecallHierarchicalIndex(prev, blk *chain.Block, blkCert *Certificate, job *IndexJob, bd *CostBreakdown) (*Certificate, error) {
	prevRoot, prevCert := ci.indexState(job.Updater)
	in := &IndexInput{
		Updater:  job.Updater,
		PrevRoot: prevRoot,
		PrevCert: prevCert,
		NewRoot:  job.NewRoot,
		Witness:  job.Witness,
	}
	inputSize := len(prev.Header.Marshal()) + len(blk.Header.Marshal()) +
		blkCert.EncodedSize() + len(job.Witness)
	if prevCert != nil {
		inputSize += prevCert.EncodedSize()
	}
	var sig []byte
	before := ci.encl.Stats()
	err := ci.encl.Ecall(inputSize, func(ctx *enclave.Context) error {
		var err error
		sig, err = ci.prog.EcallHierarchicalIndex(ctx, prev, blk, blkCert, in)
		return err
	})
	after := ci.encl.Stats()
	bd.InsideExec += (after.ExecTime - before.ExecTime).Seconds()
	bd.InsideOverhead += (after.OverheadTime - before.OverheadTime).Seconds()
	ci.met.ecallsIndex.Inc()
	ci.met.enclaveIndexSec.Observe((after.InsideTime() - before.InsideTime()).Seconds())
	if err != nil {
		return nil, fmt.Errorf("core: hierarchical ecall (%s): %w", job.Updater, err)
	}
	return ci.newCert(IndexDigest(&blk.Header, job.NewRoot), sig), nil
}

// advance commits the block's writes and appends it to the CI's store (the
// store append under ci.mu, so tip readers stay consistent with adopt).
func (ci *Issuer) advance(blk *chain.Block, res *statedb.ExecResult) error {
	if _, err := ci.node.State().Commit(res.WriteSet); err != nil {
		return fmt.Errorf("core: advance state: %w", err)
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if _, err := ci.node.Store().Add(blk); err != nil {
		return fmt.Errorf("core: advance chain: %w", err)
	}
	return nil
}
