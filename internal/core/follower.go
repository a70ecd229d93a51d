package core

import (
	"fmt"
	"sync"
	"time"

	"dcert/internal/chain"
	"dcert/internal/network"
)

// Client-side certificate catch-up (the liveness half of the fault-tolerant
// certification plane). A superlight client normally just consumes the
// certificate stream; under message loss or a partition the stream can stall
// forever. The Follower detects the stall and pulls the newest certificate
// from the one provider it was given — one accepted certificate brings the
// client fully current (the superlight catch-up property), so nothing is
// broadcast on its behalf.

// CertBundle pairs a header with its certificate — the unit a superlight
// client needs to adopt a new tip, published on TopicCerts.
type CertBundle struct {
	// Header is the certified block header.
	Header *chain.Header
	// Cert is the certificate over H(Header).
	Cert *Certificate
}

// FollowerConfig tunes a certificate follower.
type FollowerConfig struct {
	// StallDeadline is how long the cert stream may stay silent before the
	// follower pulls the newest certificate (default 200ms).
	StallDeadline time.Duration
	// QueueDepth is the cert subscription's buffer (default 64).
	QueueDepth int
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.StallDeadline <= 0 {
		c.StallDeadline = 200 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// FollowerStats counts a follower's activity.
type FollowerStats struct {
	// Accepted is the number of certificates that advanced the client's tip.
	Accepted uint64
	// Rejected is the number of certificates that failed validation or were
	// stale/duplicated (expected under chaotic delivery).
	Rejected uint64
	// Rerequests is the number of stall-triggered pulls of the newest
	// certificate.
	Rerequests uint64
}

// Follower drives a SuperlightClient from the fabric's certificate stream,
// pulling the newest certificate whenever the stream stalls.
type Follower struct {
	client *SuperlightClient
	sub    *network.Subscription
	pull   func() (*SegmentCert, error)
	cfg    FollowerConfig
	done   chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	stats FollowerStats
}

// FollowCerts starts following certificates on TopicCerts on the client's
// behalf. pull fetches the provider's newest certificate (nil when it has
// none) whenever the stream stalls; a pull error is retried at the next stall.
// The pull runs on the follower's one goroutine: while it is in flight no
// streamed certificate is read (the subscription queue absorbs them, and the
// pulled tip supersedes any it drops), and Stop waits for it to return.
func FollowCerts(client *SuperlightClient, bus network.Subscriber, pull func() (*SegmentCert, error), cfg FollowerConfig) *Follower {
	cfg = cfg.withDefaults()
	f := &Follower{
		client: client,
		sub:    bus.Subscribe(network.TopicCerts, cfg.QueueDepth),
		pull:   pull,
		cfg:    cfg,
		done:   make(chan struct{}),
	}
	f.wg.Add(1)
	go f.loop()
	return f
}

// Stop ends the follower.
func (f *Follower) Stop() {
	select {
	case <-f.done:
		return
	default:
	}
	close(f.done)
	f.sub.Cancel()
	f.wg.Wait()
}

// Stats snapshots the follower's counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Client returns the wrapped superlight client.
func (f *Follower) Client() *SuperlightClient {
	return f.client
}

func (f *Follower) loop() {
	defer f.wg.Done()
	stall := time.NewTimer(f.cfg.StallDeadline)
	defer stall.Stop()
	for {
		select {
		case <-f.done:
			return
		case m, ok := <-f.sub.C:
			if !ok {
				return
			}
			var verr error
			switch b := m.Payload.(type) {
			case *CertBundle:
				verr = f.client.ValidateChain(b.Header, b.Cert)
			case *SegmentCert:
				verr = f.client.ValidateSegment(b)
			default:
				continue
			}
			if f.count(verr) {
				// Progress: push the stall horizon out.
				if !stall.Stop() {
					select {
					case <-stall.C:
					default:
					}
				}
				stall.Reset(f.cfg.StallDeadline)
			}
		case <-stall.C:
			f.mu.Lock()
			f.stats.Rerequests++
			f.mu.Unlock()
			// A failed or empty pull is retried at the next stall; a
			// certificate not ahead of the client's tip is nothing new.
			if seg, err := f.pull(); err == nil && seg != nil {
				if hdr, _ := f.client.Latest(); hdr == nil || seg.End() > hdr.Height {
					f.count(f.client.ValidateSegment(seg))
				}
			}
			stall.Reset(f.cfg.StallDeadline)
		}
	}
}

// count records one validation outcome, reporting whether it advanced the
// client's tip.
func (f *Follower) count(verr error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if verr != nil {
		f.stats.Rejected++
		return false
	}
	f.stats.Accepted++
	return true
}

// WaitForHeight blocks until the client's tip reaches height (polling; the
// follower keeps validating in the background) or the timeout elapses.
func (f *Follower) WaitForHeight(height uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hdr, _ := f.client.Latest()
		if hdr != nil && hdr.Height >= height {
			return nil
		}
		if time.Now().After(deadline) {
			cur := uint64(0)
			if hdr != nil {
				cur = hdr.Height
			}
			st := f.Stats()
			return fmt.Errorf("core: follower stuck at height %d, want %d (accepted %d, rejected %d, rerequests %d)",
				cur, height, st.Accepted, st.Rejected, st.Rerequests)
		}
		time.Sleep(time.Millisecond)
	}
}

// LatestBundle returns the issuer's newest ⟨header, certificate⟩ pair, or
// nil before the first certified block.
func (ci *Issuer) LatestBundle() *CertBundle {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	if ci.lastCert == nil {
		return nil
	}
	tip := ci.node.Tip()
	if ci.lastCert.Digest != BlockDigest(&tip.Header) {
		return nil // mid-certification: tip advanced, cert not recorded yet
	}
	return &CertBundle{Header: &tip.Header, Cert: ci.lastCert}
}
