package main

// layers.go times each layer of the system from outside: every measurement
// here wraps one call of a layer's public function, on deployments built
// like the workload's server, and records it as a span. The traced run
// reports the medians as the per-layer metrics.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/query"
)

// Probe sizes: how many times each layer is called.
const (
	probeBlocks   = 24  // blocks through the certification path
	probeIdxBlock = 8   // blocks through hierarchical certification
	probeQueries  = 100 // queries of each kind
	probeRTTs     = 200 // round trips of each transport probe
	probeSegK     = 16  // blocks per probed segment
	probeSegs     = 6   // segments certified
)

// prober collects the samples of every probed layer.
type prober struct {
	tr      *tracer
	w       *workload
	seed    int64
	scratch string
	samples map[string][]float64
	nextOp  int64
}

// timed runs fn as one span under parent and adds its duration to the
// samples of name+"_ms".
func (p *prober) timed(name string, opID, parent int64, fn func() error) error {
	sp := p.tr.start(name, opID, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	p.add(name+"_ms", float64(d)/1e6)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (p *prober) add(name string, v float64) {
	p.samples[name] = append(p.samples[name], v)
}

func (p *prober) med(name string) float64 {
	return median(p.samples[name])
}

// op opens the root span of one probe operation.
func (p *prober) op(name string) (int64, open) {
	p.nextOp++
	id := -p.nextOp // probe operations count down; driver operations count up
	return id, p.tr.start(name, id, 0)
}

// probeSegments times K-block segment certification and what a bootstrapping
// client does with a segment: decode it, validate it, and have the issuer
// look it up. It also runs one bootstrap from genesis against the issuer.
func (p *prober) probeSegments() error {
	spec := p.w.Chain
	ls, err := openLayers(spec, p.seed, "", false)
	if err != nil {
		return err
	}
	defer ls.close()
	txs := 4
	if spec.SegmentK > 0 {
		txs = spec.Txs
	}
	for i := 0; i < probeSegs; i++ {
		id, root := p.op("probe.segment")
		blks := make([]*chain.Block, probeSegK)
		for j := range blks {
			batch, err := ls.genTxs(txs)
			if err != nil {
				return err
			}
			if blks[j], err = ls.miner.Propose(batch); err != nil {
				return err
			}
		}
		var seg *core.SegmentCert
		sp := p.tr.start("core.segment_certify", id, root.id)
		t0 := time.Now()
		seg, _, err = ls.issuer.ProcessSegment(blks)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		p.add("core.segment_certify_ms_per_block", float64(d)/1e6/probeSegK)
		raw := seg.Marshal()
		p.add("core.segment_bytes", float64(len(raw)))
		var decoded *core.SegmentCert
		if err := p.timed("core.segment_decode", id, root.id, func() (err error) {
			decoded, err = core.UnmarshalSegmentCert(raw)
			return err
		}); err != nil {
			return err
		}
		cl := ls.newClient()
		if err := p.timed("core.segment_validate", id, root.id, func() error { return cl.ValidateSegment(decoded) }); err != nil {
			return err
		}
		if err := p.timed("core.segment_lookup", id, root.id, func() error {
			if ls.issuer.SegmentCovering(seg.Start()) == nil {
				return errors.New("issuer lost its own segment")
			}
			return nil
		}); err != nil {
			return err
		}
		root.end()
	}
	cl := ls.newClient()
	genesis, err := ls.miner.Store().AtHeight(0)
	if err != nil {
		return err
	}
	fetches, err := cl.BootstrapSublinear(func(h uint64) (*core.SegmentCert, error) {
		if seg := ls.issuer.SegmentCovering(h); seg != nil {
			return seg, nil
		}
		return nil, fmt.Errorf("no segment covering height %d", h)
	}, ls.issuer.LatestSegment(), 0, genesis.Hash())
	if err != nil {
		return fmt.Errorf("probe bootstrap: %w", err)
	}
	if want := modelFetches(probeSegs*probeSegK, probeSegK); fetches != want {
		return fmt.Errorf("probe bootstrap took %d hops, the interlink model says %d", fetches, want)
	}
	p.add("core.bootstrap_fetches_per_op", float64(fetches+1))
	return nil
}

// probeBlockPath walks blocks through the certification path one layer at a
// time, in the order the server runs them: generate, propose, verify
// signatures, validate on a replica, certify (with the issuer's own cost
// breakdown), journal, ingest into the SP and the fleet, publish to a TCP
// subscriber, validate on the client. Then it replays the same blocks
// through a certification pipeline for the stages' busy times.
func (p *prober) probeBlockPath() error {
	spec := p.w.Chain
	dir, err := os.MkdirTemp(p.scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ls, err := openLayers(spec, p.seed, dir, false)
	if err != nil {
		return err
	}
	defer ls.close()
	wire, err := ls.serveWire()
	if err != nil {
		return err
	}
	defer wire.Close()
	c, err := dial(wire.Addr(), "probe-certs")
	if err != nil {
		return err
	}
	defer c.Close()
	certs := subscribeCerts(c)
	cl := ls.newClient()
	// Blocks of the size the workload mines while it is measured.
	txs := max(spec.StreamTxs, p.w.IngestTxs)
	if txs == 0 {
		txs = spec.Txs
	}

	bytes0 := dirBytes(dir)
	for i := 0; i < probeBlocks; i++ {
		id, root := p.op("probe.block")
		var batch []*chain.Transaction
		var blk *chain.Block
		var writes map[string][]byte
		var cert *core.Certificate
		var bd core.CostBreakdown
		steps := []struct {
			name string
			fn   func() error
		}{
			{"workload.gen", func() (err error) { batch, err = ls.genTxs(txs); return }},
			{"node.propose", func() (err error) { blk, err = ls.miner.Propose(batch); return }},
			{"chain.verify_txs", func() error { return chain.VerifyTxs(blk.Txs, 1) }},
			{"node.validate_block", func() (err error) { writes, err = ls.sp.Node().ValidateBlock(blk); return }},
			{"core.process_block", func() (err error) { cert, bd, err = ls.issuer.ProcessBlock(blk); return }},
			{"storage.apply_block", func() error { return ls.engine.ApplyBlock(blk, cert, writes) }},
			{"query.sp_ingest", func() error {
				if err := ls.sp.ProcessBlock(blk); err != nil {
					return err
				}
				return ls.sp.Seal()
			}},
			{"fleet.ingest", func() error { return ls.fleet.ProcessBlock(blk) }},
		}
		for _, st := range steps {
			if err := p.timed(st.name, id, root.id, st.fn); err != nil {
				return err
			}
		}
		p.add("core.outside_exec_ms", bd.OutsideExec*1e3)
		p.add("core.outside_proof_ms", bd.OutsideProof*1e3)
		p.add("enclave.inside_exec_ms", bd.InsideExec*1e3)
		p.add("enclave.overhead_ms", bd.InsideOverhead*1e3)
		p.add("core.cert_bytes", float64(blk.Header.EncodedSize()+cert.EncodedSize()))

		bundle := &core.CertBundle{Header: &blk.Header, Cert: cert}
		sp := p.tr.start("transport.publish_deliver", id, root.id)
		t0 := time.Now()
		if err := ls.hub.Publish(topicCerts, "ci0", bundle); err != nil {
			return err
		}
		var got *core.CertBundle
		select {
		case msg := <-certs.C:
			got, _ = msg.Payload.(*core.CertBundle)
		case <-time.After(5 * time.Second):
			return errors.New("published bundle never reached the TCP subscriber")
		}
		p.add("transport.publish_deliver_ms", float64(time.Since(t0))/1e6)
		sp.end()
		if got == nil {
			return errors.New("subscriber received something else than a bundle")
		}
		if err := p.timed("core.client_validate", id, root.id, func() error { return cl.ValidateChain(got.Header, got.Cert) }); err != nil {
			return err
		}
		root.end()
	}
	if err := ls.engine.Sync(); err != nil {
		return err
	}
	p.add("storage.bytes_per_block", float64(dirBytes(dir)-bytes0)/probeBlocks)

	// The same blocks through a pipeline on a second issuer.
	ci, err := ls.addIssuer()
	if err != nil {
		return err
	}
	pl, err := newPipeline(ci)
	if err != nil {
		return err
	}
	drained := make(chan error, 1)
	go func() {
		var first error
		for res := range pl.Results() {
			if res.Err != nil && first == nil {
				first = res.Err
			}
		}
		drained <- first
	}()
	for h := uint64(1); h <= ls.miner.Store().BestHeight(); h++ {
		blk, err := ls.miner.Store().AtHeight(h)
		if err != nil {
			return err
		}
		if err := pl.Submit(blk); err != nil {
			return err
		}
	}
	pl.Close()
	if err := <-drained; err != nil {
		return fmt.Errorf("probe pipeline: %w", err)
	}
	if err := pl.Wait(); err != nil {
		return fmt.Errorf("probe pipeline: %w", err)
	}
	st := pl.Stats()
	n := float64(max(st.Blocks, 1))
	p.add("core.pipeline_verify_busy_ms", float64(st.VerifyBusy)/1e6/n)
	p.add("core.pipeline_exec_busy_ms", float64(st.ExecBusy)/1e6/n)
	p.add("core.pipeline_commit_busy_ms", float64(st.CommitBusy)/1e6/n)
	return nil
}

// probeQueries builds an indexed chain like the workload's (a short default
// one for the workloads without indexes), times hierarchical certification
// and indexed ingest on it, and then the query path one layer at a time:
// route, handle with a warm and a reset cache, prove with the cache
// bypassed, encode and decode, verify.
func (p *prober) probeQueries() error {
	spec := p.w.Chain
	if !spec.Indexed {
		spec.Blocks, spec.Txs = 8, 40
	}
	ls, err := openLayers(spec, p.w.chainSeed(p.seed), "", true)
	if err != nil {
		return err
	}
	defer ls.close()
	names := []string{histIndex, kwIndex}
	var tip *chain.Block
	roots := map[string]chash.Hash{}
	mine := func(txs int, probed bool) error {
		id, root := int64(0), open{}
		if probed {
			id, root = p.op("probe.indexed_block")
			defer root.end()
		}
		batch, err := ls.genTxs(txs)
		if err != nil {
			return err
		}
		blk, err := ls.miner.Propose(batch)
		if err != nil {
			return err
		}
		jobs, err := ls.indexJobs(blk, names)
		if err != nil {
			return err
		}
		certify := func() error { _, _, _, err := ls.issuer.ProcessBlockHierarchical(blk, jobs); return err }
		ingestSP := func() error {
			if err := ls.sp.ProcessBlock(blk); err != nil {
				return err
			}
			return ls.sp.Seal()
		}
		ingestFleet := func() error { return ls.fleet.ProcessBlock(blk) }
		if probed {
			if err := p.timed("core.process_block_hierarchical", id, root.id, certify); err != nil {
				return err
			}
			if err := p.timed("query.sp_ingest_indexed", id, root.id, ingestSP); err != nil {
				return err
			}
			if err := p.timed("fleet.ingest_indexed", id, root.id, ingestFleet); err != nil {
				return err
			}
		} else {
			for _, fn := range []func() error{certify, ingestSP, ingestFleet} {
				if err := fn(); err != nil {
					return err
				}
			}
		}
		tip = blk
		for _, j := range jobs {
			roots[j.Updater] = j.NewRoot
		}
		return nil
	}
	for i := 0; i < spec.Blocks; i++ {
		if err := mine(spec.Txs, false); err != nil {
			return err
		}
	}
	ingestTxs := max(p.w.IngestTxs, spec.StreamTxs, 40)
	for i := 0; i < probeIdxBlock; i++ {
		if err := mine(ingestTxs, true); err != nil {
			return err
		}
	}

	keys, err := writtenKeys(ls.miner.Store().AtHeight, tip.Header.Height)
	if err != nil {
		return err
	}
	tokens := tokensOf(keys)
	if len(keys) < 2 || len(tokens) < 2 {
		return errors.New("probe chain wrote too few keys")
	}
	rng := rand.New(rand.NewSource(p.seed))
	hi := tip.Header.Height
	lo := hi - min(hi, histWindow) + 1
	requests := map[byte]func() *query.Request{
		opState:      func() *query.Request { return query.NewStateRequest(keys[rng.Intn(len(keys))]) },
		opHistorical: func() *query.Request { return query.NewHistoricalRequest(histIndex, keys[rng.Intn(len(keys))], lo, hi) },
		opKeyword: func() *query.Request {
			a := rng.Intn(len(tokens))
			b := (a + 1 + rng.Intn(len(tokens)-1)) % len(tokens)
			return query.NewKeywordRequest(kwIndex, []string{tokens[a], tokens[b]})
		},
	}
	resetCaches := func() {
		for i := 0; i < ls.fleet.Size(); i++ {
			if r, err := ls.fleet.Replica(fmt.Sprintf("sp-%d", i)); err == nil {
				r.Cache().Reset()
			}
		}
	}
	for _, kind := range []byte{opState, opHistorical, opKeyword} {
		kn := kindName(kind)
		for i := 0; i < probeQueries; i++ {
			id, root := p.op("probe.query_" + kn)
			req := requests[kind]()
			var reqRaw, respRaw, body []byte
			var verify func() error

			if err := p.timed("fleet.route", id, root.id, func() error {
				_, err := ls.fleet.Router().Route(req.AffinityKey())
				return err
			}); err != nil {
				return err
			}
			// Prove with the cache bypassed: the SP's own query methods.
			if err := p.timed("query.prove_"+kn, id, root.id, func() error {
				switch kind {
				case opState:
					res, err := ls.sp.StateQuery(req.Key)
					if err != nil {
						return err
					}
					body = res.Marshal()
				case opHistorical:
					res, err := ls.sp.HistoricalQuery(req.Index, req.Key, req.Lo, req.Hi)
					if err != nil {
						return err
					}
					body = res.Marshal()
				default:
					res, err := ls.sp.KeywordQuery(req.Index, req.Keywords)
					if err != nil {
						return err
					}
					body = res.Marshal()
				}
				return nil
			}); err != nil {
				return err
			}
			p.add("query.proof_bytes_"+kn, float64(len(body)))
			// Handle through the fleet: after a reset (miss), then warm (hit).
			reqRaw = req.Marshal()
			resetCaches()
			sp := p.tr.start("fleet.handle_miss", id, root.id)
			t0 := time.Now()
			respRaw = ls.fleet.HandleRaw(reqRaw)
			p.add("fleet.handle_miss_"+kn+"_ms", float64(time.Since(t0))/1e6)
			sp.end()
			sp = p.tr.start("fleet.handle_hit", id, root.id)
			t0 = time.Now()
			respRaw = ls.fleet.HandleRaw(reqRaw)
			p.add("fleet.handle_hit_"+kn+"_ms", float64(time.Since(t0))/1e6)
			sp.end()
			// Codec: what either side spends turning the exchange into and
			// out of bytes, apart from the result's own proof encoding.
			if err := p.timed("query.codec", id, root.id, func() error {
				if _, err := query.UnmarshalRequest(req.Marshal()); err != nil {
					return err
				}
				resp, err := query.UnmarshalResponse(respRaw)
				if err != nil {
					return err
				}
				if resp.Err != "" {
					return errors.New(resp.Err)
				}
				switch kind {
				case opState:
					r, err := query.UnmarshalStateResult(resp.Body)
					verify = func() error { return query.VerifyState(&tip.Header, r) }
					return err
				case opHistorical:
					r, err := query.UnmarshalHistoricalResult(resp.Body)
					verify = func() error { return query.VerifyHistorical(roots[histIndex], r) }
					return err
				default:
					r, err := query.UnmarshalKeywordResult(resp.Body)
					verify = func() error { return query.VerifyKeyword(roots[kwIndex], r) }
					return err
				}
			}); err != nil {
				return err
			}
			if err := p.timed("query.verify_"+kn, id, root.id, verify); err != nil {
				return err
			}
			root.end()
		}
	}
	return nil
}

// writtenKeys lists every state key a set transaction of the chain wrote,
// sorted.
func writtenKeys(blockAt func(uint64) (*chain.Block, error), height uint64) ([]string, error) {
	seen := map[string]struct{}{}
	for h := uint64(1); h <= height; h++ {
		blk, err := blockAt(h)
		if err != nil {
			return nil, err
		}
		for _, tx := range blk.Txs {
			if tx.Method == "set" {
				seen["ct/"+tx.Contract+"/kv/"+string(tx.Args[0])] = struct{}{}
			}
		}
	}
	return sortedKeys(seen), nil
}

// probeTransport times the two smallest round trips on the live server: the
// node-info route (no work behind it) and a state query without verifying.
func (p *prober) probeTransport(s *session) error {
	key := s.keys[0]
	for i := 0; i < probeRTTs; i++ {
		id, root := p.op("probe.rtt")
		if err := p.timed("transport.rpc_rtt", id, root.id, func() error { return nodeInfoRTT(s.ctl) }); err != nil {
			return err
		}
		if err := p.timed("transport.query_rtt", id, root.id, func() error {
			_, err := fetchQuery(s.ctl, stateRequest(key))
			return err
		}); err != nil {
			return err
		}
		root.end()
	}
	return nil
}

// calibMs times a fixed amount of hashing, as a measure of how fast the host
// is right now.
func calibMs() float64 {
	buf := make([]byte, 1024)
	t0 := time.Now()
	var h chash.Hash
	for i := 0; i < 100000; i++ {
		h = chash.Sum(chash.DomainHeader, buf)
		buf[0] = h[0]
	}
	return float64(time.Since(t0)) / 1e6
}
