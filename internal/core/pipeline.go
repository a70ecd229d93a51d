package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/obs"
	"dcert/internal/statedb"
)

// Pipelined certificate construction. Alg. 1 is strictly sequential —
// untrusted prepare, one Ecall, advance — yet only the recursive signature
// step is order-dependent: everything the host does outside the enclave for
// block i+1 can run while block i is inside. The Pipeline decomposes
// gen_cert into four stages over a bounded stream of blocks:
//
//	verify   — W workers; the state-independent checks (consensus seal,
//	           transaction-root, transaction signatures). Signature
//	           verification dominates block cost and parallelizes freely.
//	execute  — one goroutine, block order; comp_data_set + get_update_proof
//	           against the speculative state, then a speculative state
//	           commit (with an undo record) so block i+1 can execute
//	           against block i's post-state before i is certified.
//	commit   — one goroutine, block order; batches up to K prepared blocks
//	           (SegmentPolicy, K=1 by default) into the recursive
//	           EcallSegmentSigGen (the only stage the enclave serializes),
//	           then the atomic store-append + certificate publication.
//	index    — hierarchical index certification (Alg. 5) fanned out across
//	           all registered indexes in parallel per block, reusing the
//	           enclave write-set cache; ordered per index across blocks.
//
// The ordering invariant: exactly one block-certification Ecall is in
// flight at any time, and blocks enter it in chain order — the recursive
// certificate chain is identical to the sequential scheme's, byte for byte.
// Everything ahead of the committer is speculation: if an Ecall fails, the
// pipeline is aborted, or the host crashes mid-stream, every state commit
// past the last certified block is rolled back from the undo log (newest
// first), leaving the replica exactly at its certified tip — which is what
// makes tip-certificate recovery (ResumeIssuer) oblivious to the pipeline.

// Pipeline errors.
var (
	// ErrPipelineAborted is reported for blocks discarded because the
	// pipeline was aborted or an earlier block failed.
	ErrPipelineAborted = errors.New("core: pipeline aborted")
	// ErrPipelineClosed is returned by Submit after Close or Abort.
	ErrPipelineClosed = errors.New("core: pipeline closed")
	// ErrPipelineBusy is returned when a second pipeline (or a concurrent
	// sequential certification) is started on an issuer mid-stream.
	ErrPipelineBusy = errors.New("core: issuer already has an active pipeline")
)

// PipelineConfig tunes a certification pipeline.
type PipelineConfig struct {
	// Workers is the untrusted verify-stage worker count, and doubles as
	// the enclave thread (TCS) count for in-enclave signature verification.
	// Default 1.
	Workers int
	// Depth bounds the incoming-block channel and therefore how far
	// speculation may run ahead of certification (default 2×Workers).
	Depth int
	// IndexJobs, when set, prepares the hierarchical index-certification
	// jobs for each certified block from its verified write set. It is
	// called in block order from the index stage, so implementations may
	// track per-index recursion state. Nil disables index fan-out.
	IndexJobs func(blk *chain.Block, writes map[string][]byte) ([]*IndexJob, error)

	// Segment is the commit stage's batching policy: up to MaxBlocks prepared
	// blocks are certified by ONE EcallSegmentSigGen (closing early after
	// MaxDelay so tip latency stays bounded under slow arrival). Nil, or
	// MaxBlocks ≤ 1, certifies every block on arrival under the per-block
	// certificate bytes. MaxBlocks > 1 is mutually exclusive with IndexJobs —
	// hierarchical index certification verifies per-block certificates, which
	// multi-block segments do not produce.
	Segment *SegmentPolicy

	// proofHook, when set, substitutes the update proof handed from the
	// prepare side to the commit side (the trust boundary). Test-only: the
	// fuzz harness injects adversarial proofs here.
	proofHook func(proof *statedb.UpdateProof) *statedb.UpdateProof
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Depth < 1 {
		c.Depth = 2 * c.Workers
	}
	pol := SegmentPolicy{MaxBlocks: 1}
	if c.Segment != nil && c.Segment.MaxBlocks > 1 {
		pol = *c.Segment
	}
	c.Segment = &pol
	return c
}

// PipelineResult is the per-block outcome, delivered in submission order.
type PipelineResult struct {
	// Block is the submitted block.
	Block *chain.Block
	// Cert is the block certificate (nil on error).
	Cert *Certificate
	// IndexCerts are the hierarchical index certificates in job order
	// (nil without index fan-out).
	IndexCerts []*Certificate
	// Breakdown is the per-block cost split. Stage attribution is exact;
	// under concurrent index fan-out the inside-enclave split may include
	// overlapping index Ecalls.
	Breakdown CostBreakdown
	// Err reports why this block was not certified.
	Err error
	// Segment is the covering segment certificate, shared by every block it
	// covers (Cert is its certificate; nil on error). A one-block segment is
	// the per-block certificate.
	Segment *SegmentCert
}

// PipelineStats aggregates per-stage busy time for occupancy accounting.
// Busy times and quantiles are read from the pipeline's always-on atomic
// stage histograms, so snapshotting mid-stream is race-free.
type PipelineStats struct {
	// Blocks is the number certified (errors excluded).
	Blocks int
	// VerifyBusy is summed across all verify workers.
	VerifyBusy time.Duration
	// ExecBusy, CommitBusy, IndexBusy are single-goroutine stage times.
	ExecBusy   time.Duration
	CommitBusy time.Duration
	IndexBusy  time.Duration
	// VerifyP99, ExecP99, CommitP99, IndexP99 are per-block p99 stage
	// latencies (zero for stages that processed nothing).
	VerifyP99 time.Duration
	ExecP99   time.Duration
	CommitP99 time.Duration
	IndexP99  time.Duration
	// Wall is first-submit to pipeline-drained.
	Wall time.Duration
}

// pipeItem is one block moving through the stages.
type pipeItem struct {
	blk      *chain.Block
	verified chan error // capacity 1: verify stage → executor
	res      *PipelineResult
	// span is the block's root trace span (no-op without a tracer); stage
	// goroutines hang child spans off it.
	span obs.SpanHandle
	// prepared state, set by the executor:
	proof  *statedb.UpdateProof
	writes map[string][]byte
}

// undoRec can restore the state database to how it was before one block's
// speculative commit.
type undoRec struct {
	blockHash chash.Hash
	undo      *statedb.Undo
}

// Pipeline is a running pipelined certification engine over one Issuer.
type Pipeline struct {
	ci  *Issuer
	cfg PipelineConfig

	verifyCh chan *pipeItem
	orderCh  chan *pipeItem
	commitCh chan *pipeItem
	indexCh  chan *pipeItem
	out      chan *PipelineResult

	// lifeMu serializes Submit against Close (a send on a closed channel
	// panics). It is the only lock held across a blocking channel send; the
	// stages never take it, so a Submit stalled on a full pipeline cannot
	// deadlock them.
	lifeMu sync.Mutex
	closed bool

	mu      sync.Mutex
	undo    []*undoRec // oldest first; entries not yet certified
	failErr error
	failed  atomic.Bool
	started time.Time
	stats   PipelineStats

	// po carries the stage histograms (always-on: they are also the busy
	// accounting) plus registered queue/abort/rollback instruments.
	po pipelineObs

	wg   sync.WaitGroup
	done chan struct{}
}

// NewPipeline starts a certification pipeline on the issuer. The issuer must
// not be driven by anything else (sequential ProcessBlock calls included)
// until the pipeline has drained or aborted.
func NewPipeline(ci *Issuer, cfg PipelineConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	// Validate before claiming the issuer: a rejected config must not leave
	// the pipelining latch set.
	if cfg.Segment.MaxBlocks > 1 && cfg.IndexJobs != nil {
		return nil, fmt.Errorf("%w: segment certification cannot be combined with index fan-out", ErrBadSegment)
	}
	if cfg.Segment.MaxBlocks > maxSegmentBlocks {
		return nil, fmt.Errorf("%w: MaxBlocks %d beyond %d", ErrBadSegment, cfg.Segment.MaxBlocks, maxSegmentBlocks)
	}
	if !ci.pipelining.CompareAndSwap(false, true) {
		return nil, ErrPipelineBusy
	}
	// The enclave verifies transaction signatures on as many TCS entries as
	// the host runs verify workers.
	ci.prog.SetParallelism(cfg.Workers)

	pl := &Pipeline{
		ci:       ci,
		cfg:      cfg,
		verifyCh: make(chan *pipeItem, cfg.Depth),
		orderCh:  make(chan *pipeItem, cfg.Depth),
		commitCh: make(chan *pipeItem, 1),
		// The index stage may lag certification; the committer blocks once
		// the gap approaches the enclave write-cache budget, so cached
		// write sets are never evicted before their index Ecalls run.
		indexCh: make(chan *pipeItem, writeCacheLimit-2),
		out:     make(chan *PipelineResult, cfg.Depth),
		done:    make(chan struct{}),
	}
	pl.po = newPipelineObs(ci.met)
	pl.started = time.Now()
	ci.met.logger.Debug("pipeline started",
		obs.F("workers", cfg.Workers), obs.F("depth", cfg.Depth))

	for w := 0; w < cfg.Workers; w++ {
		pl.wg.Add(1)
		go pl.verifier()
	}
	pl.wg.Add(2)
	go pl.executor()
	go pl.committer()
	if cfg.IndexJobs != nil {
		pl.wg.Add(1)
		go pl.indexer()
	}
	go pl.controller()
	return pl, nil
}

// Submit feeds the next block, in chain order. It blocks when the pipeline
// is Depth blocks ahead of certification.
func (pl *Pipeline) Submit(blk *chain.Block) error {
	pl.lifeMu.Lock()
	defer pl.lifeMu.Unlock()
	if pl.closed {
		return ErrPipelineClosed
	}
	item := &pipeItem{
		blk:      blk,
		verified: make(chan error, 1),
		res:      &PipelineResult{Block: blk},
		span:     pl.ci.met.tracer.Start("pipeline.block", 0),
	}
	// Both sends under the lock: orderCh defines result order, verifyCh
	// feeds the workers; the two must enqueue identically.
	pl.po.queueVerify.Add(1)
	pl.orderCh <- item
	pl.verifyCh <- item
	return nil
}

// Close declares the stream complete: already-submitted blocks drain, then
// Results is closed.
func (pl *Pipeline) Close() {
	pl.lifeMu.Lock()
	defer pl.lifeMu.Unlock()
	if pl.closed {
		return
	}
	pl.closed = true
	close(pl.orderCh)
	close(pl.verifyCh)
}

// Abort tears the pipeline down mid-stream: in-flight blocks fail with
// ErrPipelineAborted, every speculative state commit is rolled back, and the
// issuer is left exactly at its certified tip. It blocks until quiescent.
// This is the crash path — Kill on a certification plane calls it.
func (pl *Pipeline) Abort() {
	pl.fail(ErrPipelineAborted)
	pl.Close()
	<-pl.done
}

// Wait blocks until the pipeline has fully drained (Close or Abort must
// have been called) and returns the first failure, if any.
func (pl *Pipeline) Wait() error {
	<-pl.done
	return pl.Err()
}

// Results delivers one PipelineResult per submitted block, in submission
// order. The channel closes once the pipeline has drained after Close.
func (pl *Pipeline) Results() <-chan *PipelineResult {
	return pl.out
}

// Err returns the first failure (nil while healthy).
func (pl *Pipeline) Err() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.failErr
}

// Stats snapshots stage accounting. Wall stops ticking once drained. Safe to
// call concurrently with a running pipeline: busy times and quantiles come
// from the atomic stage histograms, never from stage-goroutine writes.
func (pl *Pipeline) Stats() PipelineStats {
	pl.mu.Lock()
	s := pl.stats
	if s.Wall == 0 {
		s.Wall = time.Since(pl.started)
	}
	pl.mu.Unlock()
	s.VerifyBusy = pl.po.stage[stageVerify].SumDuration()
	s.ExecBusy = pl.po.stage[stageExec].SumDuration()
	s.CommitBusy = pl.po.stage[stageCommit].SumDuration()
	s.IndexBusy = pl.po.stage[stageIndex].SumDuration()
	s.VerifyP99 = stageP99(pl.po.stage[stageVerify])
	s.ExecP99 = stageP99(pl.po.stage[stageExec])
	s.CommitP99 = stageP99(pl.po.stage[stageCommit])
	s.IndexP99 = stageP99(pl.po.stage[stageIndex])
	return s
}

// stageP99 estimates a stage's p99 latency from its histogram (zero while
// the stage has observed nothing).
func stageP99(h *obs.Histogram) time.Duration {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return 0
	}
	return time.Duration(snap.Quantile(0.99) * float64(time.Second))
}

func (pl *Pipeline) fail(err error) {
	pl.mu.Lock()
	first := pl.failErr == nil
	if first {
		pl.failErr = err
	}
	pl.mu.Unlock()
	pl.failed.Store(true)
	if first {
		pl.po.aborts.Inc()
		pl.ci.met.logger.Warn("pipeline aborted", obs.ErrField(err))
	}
}

// verifier is the stateless stage: anything checkable without the state
// database, fanned across Workers goroutines.
func (pl *Pipeline) verifier() {
	defer pl.wg.Done()
	for item := range pl.verifyCh {
		pl.po.queueVerify.Add(-1)
		if pl.failed.Load() {
			item.verified <- ErrPipelineAborted
			continue
		}
		sp := pl.ci.met.tracer.Start("pipeline.verify", item.span.ID())
		start := time.Now()
		err := pl.verifyStateless(item.blk)
		pl.po.observeStage(stageVerify, start)
		sp.End()
		item.verified <- err
	}
}

func (pl *Pipeline) verifyStateless(blk *chain.Block) error {
	if err := consensus.Verify(pl.ci.node.Params(), &blk.Header); err != nil {
		return err
	}
	if err := blk.VerifyTxRoot(); err != nil {
		return err
	}
	if err := chain.VerifyTxs(blk.Txs, 1); err != nil {
		return fmt.Errorf("core: pipeline verify: %w", err)
	}
	return nil
}

// executor is the speculative untrusted stage: execution, proof generation,
// undo capture, and the speculative state commit, strictly in block order.
func (pl *Pipeline) executor() {
	defer pl.wg.Done()
	defer close(pl.commitCh)
	specTip, _ := pl.ci.certifiedTip()
	for item := range pl.orderCh {
		verr := <-item.verified
		if pl.failed.Load() {
			item.res.Err = pl.abortErr()
			pl.po.queueCommit.Add(1)
			pl.commitCh <- item
			continue
		}
		if verr != nil {
			item.res.Err = verr
			pl.fail(verr)
			pl.po.queueCommit.Add(1)
			pl.commitCh <- item
			continue
		}
		sp := pl.ci.met.tracer.Start("pipeline.execute", item.span.ID())
		start := time.Now()
		err := pl.executeSpeculative(specTip, item)
		pl.po.observeStage(stageExec, start)
		sp.End()
		if err != nil {
			item.res.Err = err
			pl.fail(err)
		} else {
			specTip = item.blk
		}
		pl.po.queueCommit.Add(1)
		pl.commitCh <- item
	}
}

// executeSpeculative runs Alg. 1 lines 2-3 for one block on top of the
// speculative state, then commits its writes under an undo record.
func (pl *Pipeline) executeSpeculative(specTip *chain.Block, item *pipeItem) error {
	blk := item.blk
	if blk.Header.PrevHash != specTip.Header.Hash() || blk.Header.Height != specTip.Header.Height+1 {
		return fmt.Errorf("%w: block %d (%s) does not extend pipeline tip %d (%s)",
			chain.ErrBadBlock, blk.Header.Height, blk.Hash(), specTip.Header.Height, specTip.Hash())
	}
	state := pl.ci.node.State()
	execTimer := startTimer()
	res, err := state.ExecuteBlockPreverified(pl.ci.node.Registry(), blk.Txs)
	if err != nil {
		return fmt.Errorf("core: comp_data_set: %w", err)
	}
	item.res.Breakdown.OutsideExec += execTimer()

	proofTimer := startTimer()
	proof, err := state.UpdateProofFor(res)
	if err != nil {
		return fmt.Errorf("core: get_update_proof: %w", err)
	}
	item.res.Breakdown.OutsideProof += proofTimer()
	if pl.cfg.proofHook != nil {
		proof = pl.cfg.proofHook(proof)
	}

	// Capture the undo record before mutating anything, then commit the
	// writes speculatively so the next block executes on this post-state.
	rec, err := captureUndo(state, blk.Hash(), res.WriteSet)
	if err != nil {
		return err
	}
	if _, err := state.Commit(res.WriteSet); err != nil {
		return fmt.Errorf("core: speculative commit: %w", err)
	}
	pl.mu.Lock()
	pl.undo = append(pl.undo, rec)
	pl.mu.Unlock()

	item.proof = proof
	item.writes = res.WriteSet
	return nil
}

// committer is the commit stage: it accumulates prepared blocks and certifies
// each batch with ONE Ecall. A batch closes at MaxBlocks (at once, under the
// default K=1), at MaxDelay after its first block arrived (the tip-latency
// bound), at stream end, or at an error boundary. Items arrive in block
// order, so the abort gate is local: blocks prepared before the first failed
// one still certify even when a later block has already tripped the
// pipeline-wide failed flag (the executor runs ahead of the Ecall), and
// everything from the first failure onward aborts. A batch pending when the
// pipeline has already failed is speculation and dies with it: those blocks
// abort uncertified, their state commits roll back, and a restarted issuer
// re-certifies them as the uncertified suffix.
func (pl *Pipeline) committer() {
	defer pl.wg.Done()
	defer close(pl.indexCh)
	pol := *pl.cfg.Segment
	var batch []*pipeItem
	aborted := false

	// emit hands a finished item to the index stage, or straight to the
	// result stream without one.
	emit := func(item *pipeItem) {
		if pl.cfg.IndexJobs != nil {
			pl.po.queueIndex.Add(1)
			pl.indexCh <- item
			return
		}
		item.span.End()
		pl.out <- item.res
	}
	// kill abandons the open batch as speculation.
	kill := func() {
		for _, it := range batch {
			it.res.Err = pl.abortErr()
			emit(it)
		}
		batch = batch[:0]
	}
	flush := func() {
		if len(batch) == 0 || aborted {
			return
		}
		blks := make([]*chain.Block, len(batch))
		proofs := make([]*statedb.UpdateProof, len(batch))
		for i, it := range batch {
			blks[i] = it.blk
			proofs[i] = it.proof
		}
		// The batch's cost and its commit span are booked on the block that
		// closed it.
		tip := batch[len(batch)-1]
		sp := pl.ci.met.tracer.Start("pipeline.commit", tip.span.ID())
		start := time.Now()
		seg, err := pl.ci.certify(blks, proofs, &tip.res.Breakdown)
		pl.po.observeStage(stageCommit, start)
		sp.End()
		if err != nil {
			pl.fail(err)
			aborted = true
		} else {
			// Each certified block's speculative commit is now durable; its
			// undo record (always the oldest) retires.
			pl.mu.Lock()
			for _, it := range batch {
				if len(pl.undo) > 0 && pl.undo[0].blockHash == it.blk.Hash() {
					pl.undo = pl.undo[1:]
				}
				pl.stats.Blocks++
			}
			pl.mu.Unlock()
		}
		for _, it := range batch {
			if err != nil {
				it.res.Err = err
			} else {
				it.res.Cert, it.res.Segment = seg.Cert, seg
				pl.po.blocks.Inc()
			}
			emit(it)
		}
		batch = batch[:0]
	}

	var timer *time.Timer
	var deadline <-chan time.Time
	disarm := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			deadline = nil
		}
	}
	defer disarm()

	for {
		select {
		case item, ok := <-pl.commitCh:
			if !ok {
				disarm()
				// Stream end: a healthy pipeline certifies its final partial
				// batch; a failed one abandons it (the blocks roll back).
				if pl.failed.Load() && !aborted {
					kill()
				} else {
					flush()
				}
				return
			}
			pl.po.queueCommit.Add(-1)
			switch {
			case item.res.Err != nil:
				disarm()
				if errors.Is(item.res.Err, ErrPipelineAborted) {
					// Abort boundary: the enclave is being torn down (Kill),
					// so the open batch may not take a last-gasp Ecall.
					kill()
				} else {
					// Error boundary: everything before the failed block
					// still certifies, everything from it onward aborts.
					flush()
				}
				aborted = true
				emit(item)
			case aborted:
				item.res.Err = pl.abortErr()
				emit(item)
			default:
				batch = append(batch, item)
				if len(batch) == 1 && pol.MaxDelay > 0 {
					timer = time.NewTimer(pol.MaxDelay)
					deadline = timer.C
				}
				if len(batch) >= pol.MaxBlocks {
					disarm()
					flush()
				}
			}
		case <-deadline:
			timer = nil
			deadline = nil
			flush()
		}
	}
}

// indexer fans hierarchical index certification out in parallel across the
// block's indexes (Alg. 5 lines 3-15 per index), in block order across
// blocks so each index's own certificate recursion stays intact.
func (pl *Pipeline) indexer() {
	defer pl.wg.Done()
	// No pipeline-wide failed check here: the committer has already marked
	// every item from the first failure onward, and a block it did commit
	// is certified — its index certs must follow even if a later block has
	// since failed.
	for item := range pl.indexCh {
		pl.po.queueIndex.Add(-1)
		if item.res.Err == nil {
			sp := pl.ci.met.tracer.Start("pipeline.index", item.span.ID())
			start := time.Now()
			err := pl.indexOne(item)
			pl.po.observeStage(stageIndex, start)
			sp.End()
			if err != nil {
				item.res.Err = err
				pl.fail(err)
			}
		}
		item.span.End()
		pl.out <- item.res
	}
}

func (pl *Pipeline) indexOne(item *pipeItem) error {
	jobs, err := pl.cfg.IndexJobs(item.blk, item.writes)
	if err != nil {
		return fmt.Errorf("core: pipeline index jobs: %w", err)
	}
	if len(jobs) == 0 {
		return nil
	}
	prev, err := pl.ci.node.Store().Get(item.blk.Header.PrevHash)
	if err != nil {
		return fmt.Errorf("core: pipeline index prev: %w", err)
	}
	certs := make([]*Certificate, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job *IndexJob) {
			defer wg.Done()
			var bd CostBreakdown
			cert, err := pl.ci.ecallHierarchicalIndex(prev, item.blk, item.res.Cert, job, &bd)
			if err != nil {
				errs[i] = err
				return
			}
			certs[i] = cert
			pl.ci.storeIndexCert(job.Updater, job.NewRoot, cert)
		}(i, job)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	item.res.IndexCerts = certs
	return nil
}

// controller waits for the stages, rolls back any uncertified speculation,
// and closes the result stream.
func (pl *Pipeline) controller() {
	pl.wg.Wait()
	pl.rollback()
	pl.mu.Lock()
	pl.stats.Wall = time.Since(pl.started)
	pl.mu.Unlock()
	pl.ci.pipelining.Store(false)
	close(pl.out)
	close(pl.done)
}

// rollback undoes every speculative state commit past the certified tip,
// newest first, restoring the replica to exactly the certified state.
func (pl *Pipeline) rollback() {
	pl.mu.Lock()
	pending := pl.undo
	pl.undo = nil
	pl.mu.Unlock()
	if len(pending) > 0 {
		pl.po.rollbacks.Add(uint64(len(pending)))
		pl.ci.met.logger.Warn("rolling back speculative commits",
			obs.F("blocks", len(pending)))
	}
	applyUndo(pl.ci.node.State(), pending)
}

func (pl *Pipeline) abortErr() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.failErr != nil {
		return fmt.Errorf("%w: %v", ErrPipelineAborted, pl.failErr)
	}
	return ErrPipelineAborted
}

// ProcessBlocksPipelined certifies a batch of blocks through a pipeline and
// returns the per-block results in order — the drop-in pipelined counterpart
// of calling ProcessBlock in a loop (catch-up after recovery uses it).
func (ci *Issuer) ProcessBlocksPipelined(blks []*chain.Block, cfg PipelineConfig) ([]*PipelineResult, error) {
	pl, err := NewPipeline(ci, cfg)
	if err != nil {
		return nil, err
	}
	go func() {
		for _, blk := range blks {
			if err := pl.Submit(blk); err != nil {
				break
			}
		}
		pl.Close()
	}()
	results := make([]*PipelineResult, 0, len(blks))
	for res := range pl.Results() {
		results = append(results, res)
	}
	return results, pl.Err()
}
