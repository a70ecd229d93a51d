package dcert

import (
	"errors"
	"fmt"
	"sync"

	"dcert/internal/core"
	"dcert/internal/node"
)

// The certification plane: redundant certificate issuers over one chain.
// The paper notes the CI is "any SGX full node" and that redundancy restores
// availability (§4.3) — a deployment can run N CIs, each certifying every
// block with its own enclave, and a superlight client accepts a certificate
// from any properly attested enclave, tracking the highest certified height.
// Issuers can be killed (crash: the enclave and its sealed key are lost) and
// restarted (resume from the last persisted certificate, re-certify only the
// blocks missed while down).

// Cert-plane types (package internal/core).
type (
	// CertBundle pairs a header with its certificate for the fabric.
	CertBundle = core.CertBundle
	// CertFollower drives a SuperlightClient from the certificate stream,
	// pulling the newest certificate when the stream stalls.
	CertFollower = core.Follower
	// FollowerConfig tunes a CertFollower.
	FollowerConfig = core.FollowerConfig
	// FollowerStats counts a follower's activity.
	FollowerStats = core.FollowerStats
)

// FollowCerts starts a certificate follower for a client on the
// deployment's fabric. A stalled follower pulls the deployment's newest
// certificate (tipSegment).
func (d *Deployment) FollowCerts(client *SuperlightClient, cfg FollowerConfig) *CertFollower {
	return core.FollowCerts(client, d.net, func() (*SegmentCert, error) { return d.tipSegment().seg, nil }, cfg)
}

// ciSlot is one issuer of the certification plane.
type ciSlot struct {
	name   string
	issuer *core.Issuer // nil while crashed
	node   *node.FullNode
	// tipCert is the certificate of the replica's tip kept across a crash,
	// as the host's chain log keeps it (nil when it crashed before
	// certifying).
	tipCert *core.Certificate
	alive   bool
	// pipe is the slot's certification pipeline while pipelined mining is on.
	pipe *core.Pipeline
	// pipeDone closes when the slot's bundle-publishing consumer exits.
	pipeDone chan struct{}
	// pipeErr is the first non-abort certification failure the consumer saw
	// (written by the consumer goroutine, read after pipeDone closes).
	pipeErr error
}

// CertPlane runs N redundant certificate issuers over the deployment's
// chain and publishes one certificate bundle per live issuer per block.
type CertPlane struct {
	d  *Deployment
	mu sync.Mutex
	// slots are the plane's issuers, slot 0 being the deployment's primary.
	slots []*ciSlot
	// pipeCfg is non-nil while pipelined mining is on (StartPipelines).
	pipeCfg *PipelineConfig
}

// StartCertPlane builds a certification plane of n issuers (n ≥ 1). The
// deployment's primary issuer becomes slot "ci0"; n-1 additional issuers
// ("ci1", ...) are provisioned on the same chain and authority.
func (d *Deployment) StartCertPlane(n int) (*CertPlane, error) {
	if n < 1 {
		return nil, fmt.Errorf("dcert: cert plane needs at least 1 issuer, got %d", n)
	}
	p := &CertPlane{d: d}
	for i := 0; i < n; i++ {
		ci := d.Issuer()
		if i > 0 {
			extra, err := d.AddIssuer()
			if err != nil {
				return nil, err
			}
			ci = extra
		}
		name := fmt.Sprintf("ci%d", i)
		if d.reg != nil && i > 0 {
			// Slot 0 is the primary, instrumented by EnableObservability;
			// extra issuers join the same plane under their slot identity.
			ci.Instrument(d.reg, d.tracer, d.logger, name)
		}
		p.slots = append(p.slots, &ciSlot{name: name, issuer: ci, node: ci.Node(), alive: true})
	}
	return p, nil
}

// slot finds an issuer by name.
func (p *CertPlane) slot(name string) (*ciSlot, error) {
	for _, s := range p.slots {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("dcert: unknown issuer %q", name)
}

// Live lists the names of issuers currently certifying.
func (p *CertPlane) Live() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, s := range p.slots {
		if s.alive {
			out = append(out, s.name)
		}
	}
	return out
}

// Issuer returns a live issuer by name.
func (p *CertPlane) Issuer(name string) (*Issuer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.slot(name)
	if err != nil {
		return nil, err
	}
	if !s.alive {
		return nil, fmt.Errorf("dcert: issuer %q is down", name)
	}
	return s.issuer, nil
}

// MineAndBroadcast mines a block of n transactions, has every live issuer
// certify it, feeds the SP, and publishes one CertBundle per live issuer on
// the fabric. With zero live issuers the block is still mined — clients
// simply see no certificate until an issuer returns — and it persists
// uncertified: recovery drops it unless a certificate lands before the
// crash.
func (p *CertPlane) MineAndBroadcast(n int) (*Block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mine(n, false)
}

// mine (mu held) runs the deployment's mining routine over the live slots,
// certifying inline or through their pipelines.
func (p *CertPlane) mine(n int, pipelined bool) (*Block, error) {
	var targets []certTarget
	for _, s := range p.slots {
		if !s.alive || (pipelined && s.pipe == nil) {
			continue
		}
		t := certTarget{name: s.name, issuer: s.issuer}
		if pipelined {
			t.pipe = s.pipe
		}
		targets = append(targets, t)
	}
	blks, _, _, err := p.d.mine(1, n, nil, targets)
	if err != nil {
		return nil, err
	}
	return blks[0], nil
}

// StartPipelines switches the plane to pipelined certification: every live
// issuer gets a core.Pipeline, and MineAndBroadcastPipelined feeds blocks to
// all of them concurrently. Certificate bundles publish asynchronously as
// each pipeline's committer lands them. DrainPipelines (or Kill per slot)
// tears the pipelines down.
func (p *CertPlane) StartPipelines(cfg PipelineConfig) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pipeCfg != nil {
		return fmt.Errorf("dcert: pipelines already running")
	}
	c := cfg
	p.pipeCfg = &c
	for _, s := range p.slots {
		if !s.alive {
			continue
		}
		if err := p.startSlotPipeline(s); err != nil {
			for _, t := range p.slots {
				if t.pipe != nil {
					t.pipe.Abort()
					<-t.pipeDone
					t.pipe, t.pipeDone, t.pipeErr = nil, nil, nil
				}
			}
			p.pipeCfg = nil
			return fmt.Errorf("dcert: start pipeline %s: %w", s.name, err)
		}
	}
	return nil
}

// startSlotPipeline (mu held) attaches a pipeline plus its bundle-publishing
// consumer to a live slot.
func (p *CertPlane) startSlotPipeline(s *ciSlot) error {
	pl, err := core.NewPipeline(s.issuer, *p.pipeCfg)
	if err != nil {
		return err
	}
	s.pipe = pl
	s.pipeDone = make(chan struct{})
	s.pipeErr = nil
	go func(s *ciSlot, ci *core.Issuer, pl *core.Pipeline) {
		defer close(s.pipeDone)
		for res := range pl.Results() {
			if res.Err != nil {
				if s.pipeErr == nil && !errors.Is(res.Err, core.ErrPipelineAborted) {
					s.pipeErr = res.Err
				}
				continue
			}
			// Blocks of one segment share its certificate: it lands once,
			// when the segment's tip does (the blocks were journaled,
			// uncertified, before Submit).
			if res.Segment.End() != res.Block.Header.Height {
				continue
			}
			if err := p.d.certLanded(s.name, ci, res.Segment); err != nil && s.pipeErr == nil {
				s.pipeErr = err
			}
		}
	}(s, s.issuer, pl)
	return nil
}

// MineAndBroadcastPipelined mines a block and submits it to every live
// issuer's pipeline instead of certifying inline: block i+1 is proposed,
// verified, and speculatively executed while block i is still inside the
// enclaves. The SP is fed immediately; bundles follow as the pipelines
// certify.
func (p *CertPlane) MineAndBroadcastPipelined(n int) (*Block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pipeCfg == nil {
		return nil, fmt.Errorf("dcert: pipelines not running (call StartPipelines first)")
	}
	return p.mine(n, true)
}

// DrainPipelines completes pipelined certification: every live pipeline is
// closed, all in-flight blocks certify and publish, and the plane returns to
// inline mining. It reports the first certification failure, if any.
func (p *CertPlane) DrainPipelines() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pipeCfg == nil {
		return fmt.Errorf("dcert: pipelines not running")
	}
	var firstErr error
	for _, s := range p.slots {
		if s.pipe == nil {
			continue
		}
		s.pipe.Close()
		err := s.pipe.Wait()
		<-s.pipeDone
		if firstErr == nil {
			if err != nil {
				firstErr = err
			} else if s.pipeErr != nil {
				firstErr = s.pipeErr
			}
		}
		s.pipe, s.pipeDone, s.pipeErr = nil, nil, nil
	}
	p.pipeCfg = nil
	return firstErr
}

// CheckpointHeight reports the certified height a crashed issuer restarts
// from: its replica's tip, if it holds that tip's certificate (zero when it
// crashed before certifying).
func (p *CertPlane) CheckpointHeight(name string) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.slot(name)
	if err != nil {
		return 0, err
	}
	if s.tipCert == nil {
		return 0, nil
	}
	return s.node.Tip().Header.Height, nil
}

// Kill crashes an issuer: its enclave (and sealed key) is destroyed and the
// plane stops feeding it blocks. The issuer's full-node replica and its tip
// certificate survive, as they would on the untrusted host's disk. If the
// issuer was running a certification pipeline, every speculative
// (uncertified) state commit is rolled back first, so the surviving replica
// and certificate describe exactly the certified tip — in-flight speculation
// dies with the enclave.
func (p *CertPlane) Kill(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.slot(name)
	if err != nil {
		return err
	}
	if !s.alive {
		return fmt.Errorf("dcert: issuer %q already down", name)
	}
	if s.pipe != nil {
		s.pipe.Abort()
		<-s.pipeDone
		s.pipe, s.pipeDone, s.pipeErr = nil, nil, nil
	}
	s.tipCert = nil
	if seg := s.issuer.LatestSegment(); seg != nil {
		s.tipCert = seg.Cert
	}
	s.issuer = nil
	s.alive = false
	return nil
}

// Restart recovers a crashed issuer: a fresh enclave resumes from the
// kept tip certificate, re-certifies only the blocks mined while it was
// down (fetching them from the miner, as a recovering full node would from
// its peers), and re-publishes its newest certificate.
func (p *CertPlane) Restart(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.slot(name)
	if err != nil {
		return err
	}
	if s.alive {
		return fmt.Errorf("dcert: issuer %q is not down", name)
	}
	platform, err := p.d.authority.NewPlatform()
	if err != nil {
		return fmt.Errorf("dcert: restart %s: %w", name, err)
	}
	ci, err := core.ResumeIssuer(s.node, p.d.authority, platform, p.d.cfg.EnclaveCost, s.tipCert)
	if err != nil {
		return fmt.Errorf("dcert: restart %s: %w", name, err)
	}
	if p.d.reg != nil {
		// Re-instrument under the same slot identity: the registry dedups by
		// (name, labels), so the resumed issuer continues its predecessor's
		// series instead of forking new ones.
		ci.Instrument(p.d.reg, p.d.tracer, p.d.logger, name)
	}
	// Catch up: certify the blocks missed while down, continuing the
	// recursion from the tip certificate. The missed blocks form a
	// batch, so they stream through a catch-up pipeline (the recovering CI's
	// enclave never idles waiting for the host to prepare the next block).
	// In a durable deployment the miner's store reads every body older than
	// its window back from the chain log: a real recovering CI reads its
	// host's disk before asking peers.
	minerStore := p.d.miner.Store()
	var missed []*Block
	for h := s.node.Tip().Header.Height + 1; h <= minerStore.BestHeight(); h++ {
		blk, err := minerStore.AtHeight(h)
		if err != nil {
			return fmt.Errorf("dcert: restart %s: fetch height %d: %w", name, h, err)
		}
		missed = append(missed, blk)
	}
	if len(missed) > 0 {
		catchUp := PipelineConfig{}
		if p.pipeCfg != nil {
			catchUp = *p.pipeCfg
		}
		results, err := ci.ProcessBlocksPipelined(missed, catchUp)
		if err != nil {
			return fmt.Errorf("dcert: restart %s: re-certify: %w", name, err)
		}
		for _, res := range results {
			if res.Err != nil {
				return fmt.Errorf("dcert: restart %s: re-certify height %d: %w", name, res.Block.Header.Height, res.Err)
			}
		}
	}
	// The newest segment lands, and journals, once: its certificate attests
	// every catch-up segment below it.
	if seg := ci.LatestSegment(); seg != nil {
		if err := p.d.certLanded(name, ci, seg); err != nil {
			return err
		}
	}
	s.issuer = ci
	s.alive = true
	if p.pipeCfg != nil {
		if err := p.startSlotPipeline(s); err != nil {
			return fmt.Errorf("dcert: restart %s: pipeline: %w", name, err)
		}
	}
	if s.name == "ci0" {
		p.d.issuer.Store(ci) // keep Deployment.Issuer() pointing at the live primary
	}
	return nil
}

// Stop releases the plane's background work. The plane runs none outside
// its pipelines (DrainPipelines and Kill end those), so Stop is a no-op.
func (p *CertPlane) Stop() {}
