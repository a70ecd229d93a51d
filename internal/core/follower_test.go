package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dcert/internal/enclave"
	"dcert/internal/network"
	"dcert/internal/workload"
)

// issuerTip is a pull source that reads an issuer's newest certificate.
func issuerTip(ci *Issuer) func() (*SegmentCert, error) {
	return func() (*SegmentCert, error) { return ci.LatestSegment(), nil }
}

func TestFollowerConsumesBundleStream(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	net := network.New()
	defer net.Close()
	f := FollowCerts(e.client(), net, issuerTip(e.issuer), FollowerConfig{StallDeadline: time.Second})
	defer f.Stop()

	const n = 4
	for i := 0; i < n; i++ {
		blk := e.mine(t, 3)
		if _, _, err := e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		seg := e.issuer.LatestSegment()
		if err := net.Publish(network.TopicCerts, "ci", &CertBundle{Header: seg.Tip(), Cert: seg.Cert}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if err := f.WaitForHeight(n, 5*time.Second); err != nil {
		t.Fatalf("WaitForHeight: %v", err)
	}
	f.Stop() // settle the counters
	if st := f.Stats(); st.Accepted != n {
		t.Fatalf("stats = %+v, want %d accepted", st, n)
	}
}

// TestFollowerCatchesUpByPull starves the follower of the live stream
// entirely: nothing is ever published. The stall deadline must trigger a
// pull of the newest certificate, and that one certificate must bring the
// client to the tip in one validation. The source's first answer is an
// error, which only defers catch-up to the next stall.
func TestFollowerCatchesUpByPull(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	net := network.New()
	defer net.Close()

	// Certify 3 blocks without publishing anything — the live stream is gone.
	for i := 0; i < 3; i++ {
		blk := e.mine(t, 3)
		if _, _, err := e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
	}

	var pulls atomic.Int32
	pull := func() (*SegmentCert, error) {
		if pulls.Add(1) == 1 {
			return nil, errors.New("provider unreachable")
		}
		return e.issuer.LatestSegment(), nil
	}
	f := FollowCerts(e.client(), net, pull, FollowerConfig{StallDeadline: 20 * time.Millisecond})
	defer f.Stop()
	if err := f.WaitForHeight(3, 5*time.Second); err != nil {
		t.Fatalf("catch-up by pull failed: %v", err)
	}
	f.Stop() // settle the counters
	st := f.Stats()
	if st.Rerequests < 2 || st.Accepted != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want a failed pull, then one accepted certificate", st)
	}
}
