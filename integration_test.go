package dcert_test

import (
	"errors"
	"testing"
	"time"

	"dcert"
	"dcert/internal/core"
)

// newSmallDeployment builds a fast deployment for integration tests.
func newSmallDeployment(t *testing.T, w dcert.Workload, seed int64) *dcert.Deployment {
	t.Helper()
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   w,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       seed,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	return dep
}

// TestNetworkedClientFollowsCertStream runs a superlight client as a
// goroutine subscribed to the simulated network's certificate topic — the
// certification workflow of Fig. 2 end to end over the fabric. Every bundle
// must certify the block the miner holds at its height.
func TestNetworkedClientFollowsCertStream(t *testing.T) {
	dep := newSmallDeployment(t, dcert.KVStore, 1)
	client := dep.NewSuperlightClient()

	certs := dep.Net().Subscribe(dcert.TopicCerts, 32)
	defer certs.Cancel()

	const n = 6
	done := make(chan error, 1)
	go func() {
		for validated := 0; validated < n; validated++ {
			select {
			case m, ok := <-certs.C:
				if !ok {
					done <- errors.New("cert stream closed")
					return
				}
				bundle := m.Payload.(*dcert.CertBundle)
				blk, err := dep.Miner().Store().AtHeight(bundle.Header.Height)
				if err != nil {
					done <- err
					return
				}
				if bundle.Header.Hash() != blk.Hash() {
					done <- errors.New("certificate bundle is not for the miner's block")
					return
				}
				if err := client.ValidateChain(bundle.Header, bundle.Cert); err != nil {
					done <- err
					return
				}
			case <-time.After(5 * time.Second):
				done <- errors.New("timed out waiting for a certificate")
				return
			}
		}
		done <- nil
	}()

	for i := 0; i < n; i++ {
		if _, _, err := dep.MineAndCertify(8); err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("networked client: %v", err)
	}
	hdr, _ := client.Latest()
	if hdr.Height != n {
		t.Fatalf("client height = %d, want %d", hdr.Height, n)
	}
}

// TestEveryEntryPointFeedsFollowers: whichever public entry point mines the
// chain, a FollowCerts follower on the fabric reaches the mined tip from the
// stream alone — every entry point publishes what core.Follower reads, a
// CertBundle for one block and a SegmentCert for more. MineAndCertify used to
// publish a bare certificate the follower skipped, and the hierarchical entry
// published nothing.
func TestEveryEntryPointFeedsFollowers(t *testing.T) {
	const rounds = 3
	withPlane := func(pipe *dcert.PipelineConfig) func(*testing.T, *dcert.Deployment) func() error {
		return func(t *testing.T, dep *dcert.Deployment) func() error {
			plane, err := dep.StartCertPlane(2)
			if err != nil {
				t.Fatalf("StartCertPlane: %v", err)
			}
			t.Cleanup(plane.Stop)
			if pipe == nil {
				return func() error { _, err := plane.MineAndBroadcast(4); return err }
			}
			if err := plane.StartPipelines(*pipe); err != nil {
				t.Fatalf("StartPipelines: %v", err)
			}
			t.Cleanup(func() { plane.DrainPipelines() })
			return func() error { _, err := plane.MineAndBroadcastPipelined(4); return err }
		}
	}
	entries := map[string]func(*testing.T, *dcert.Deployment) func() error{
		"MineAndCertify": func(_ *testing.T, dep *dcert.Deployment) func() error {
			return func() error { _, _, err := dep.MineAndCertify(4); return err }
		},
		"MineAndCertifySegment": func(_ *testing.T, dep *dcert.Deployment) func() error {
			return func() error { _, _, err := dep.MineAndCertifySegment(3, 4); return err }
		},
		"MineAndCertifyHierarchical": func(t *testing.T, dep *dcert.Deployment) func() error {
			if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
				return dcert.NewHistoricalIndex("hist", "ct/")
			}); err != nil {
				t.Fatalf("AddIndex: %v", err)
			}
			return func() error { _, _, _, err := dep.MineAndCertifyHierarchical(4, []string{"hist"}); return err }
		},
		"MineAndBroadcast":                   withPlane(nil),
		"MineAndBroadcastPipelined":          withPlane(&dcert.PipelineConfig{Workers: 2}),
		"MineAndBroadcastPipelined-segments": withPlane(&dcert.PipelineConfig{Workers: 2, Segment: &dcert.SegmentPolicy{MaxBlocks: 3}}),
	}
	for name, setUp := range entries {
		t.Run(name, func(t *testing.T) {
			dep := newSmallDeployment(t, dcert.KVStore, 9)
			mine := setUp(t, dep)
			// No stall re-requests: the follower may only learn from what the
			// entry point itself publishes.
			follower := dep.FollowCerts(dep.NewSuperlightClient(), dcert.FollowerConfig{StallDeadline: time.Hour})
			defer follower.Stop()
			for i := 0; i < rounds; i++ {
				if err := mine(); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
			}
			tip := dep.Miner().Store().BestHeight()
			if tip < rounds {
				t.Fatalf("mined tip %d after %d rounds", tip, rounds)
			}
			if err := follower.WaitForHeight(tip, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if st := follower.Stats(); st.Rerequests != 0 {
				t.Fatalf("follower needed %d re-requests", st.Rerequests)
			}
		})
	}
}

// TestMultiCISwitch exercises the §4.3 multi-CI setting: a client validates
// certificates from one CI, then switches to a second CI running the same
// trusted program — requiring exactly one new attestation-report check — and
// keeps validating.
func TestMultiCISwitch(t *testing.T) {
	dep := newSmallDeployment(t, dcert.KVStore, 2)
	ci2, err := dep.AddIssuer()
	if err != nil {
		t.Fatalf("AddIssuer: %v", err)
	}
	if ci2.Measurement() != dep.Issuer().Measurement() {
		t.Fatal("same trusted program must yield the same measurement")
	}
	client := dep.NewSuperlightClient()

	// Both CIs follow the same chain; the client starts on CI 1.
	for i := 0; i < 3; i++ {
		txs, err := dep.GenerateBlockTxs(8)
		if err != nil {
			t.Fatalf("GenerateBlockTxs: %v", err)
		}
		blk, err := dep.Miner().Propose(txs)
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		cert1, _, err := dep.Issuer().ProcessBlock(blk)
		if err != nil {
			t.Fatalf("CI1 ProcessBlock: %v", err)
		}
		cert2, _, err := ci2.ProcessBlock(blk)
		if err != nil {
			t.Fatalf("CI2 ProcessBlock: %v", err)
		}
		// Distinct enclaves sign with distinct sealed keys.
		if string(cert1.PubKey) == string(cert2.PubKey) {
			t.Fatal("independent CIs must have independent enclave keys")
		}
		if i < 2 {
			if err := client.ValidateChain(&blk.Header, cert1); err != nil {
				t.Fatalf("validate via CI1: %v", err)
			}
		} else {
			// Switch to CI 2 mid-stream: works after one fresh report check.
			if err := client.ValidateChain(&blk.Header, cert2); err != nil {
				t.Fatalf("validate via CI2: %v", err)
			}
		}
	}
	hdr, _ := client.Latest()
	if hdr.Height != 3 {
		t.Fatalf("client height = %d", hdr.Height)
	}
}

// TestRogueCIRejected pins the client to the genuine program and presents a
// certificate from an enclave running a DIFFERENT program (different
// measurement): the attestation check must reject it even though the
// signature chain is internally consistent.
func TestRogueCIRejected(t *testing.T) {
	dep := newSmallDeployment(t, dcert.KVStore, 3)
	client := dep.NewSuperlightClient()

	// The rogue deployment shares nothing with the genuine one except the
	// workload shape; its authority differs, so its reports cannot verify.
	rogue := newSmallDeployment(t, dcert.KVStore, 3)
	blk, cert, err := rogue.MineAndCertify(8)
	if err != nil {
		t.Fatalf("rogue MineAndCertify: %v", err)
	}
	if err := client.ValidateChain(&blk.Header, cert); !errors.Is(err, core.ErrBadCertificate) {
		t.Fatalf("want ErrBadCertificate for rogue CI, got %v", err)
	}
}

// TestSPAndCIIndexReplicasAgree cross-checks that the SP's index root always
// matches what the CI's enclave certified, block after block — divergence
// would mean the certified root no longer covers the data the SP serves.
func TestSPAndCIIndexReplicasAgree(t *testing.T) {
	dep := newSmallDeployment(t, dcert.SmallBank, 4)
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewHistoricalIndex("hist", "ct/")
	}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	client := dep.NewSuperlightClient()

	for i := 0; i < 5; i++ {
		blk, blkCert, idxCerts, err := dep.MineAndCertifyHierarchical(10, []string{"hist"})
		if err != nil {
			t.Fatalf("MineAndCertifyHierarchical: %v", err)
		}
		if err := client.ValidateChain(&blk.Header, blkCert); err != nil {
			t.Fatalf("ValidateChain: %v", err)
		}
		ix, err := dep.SP().Index("hist")
		if err != nil {
			t.Fatalf("Index: %v", err)
		}
		spRoot, err := ix.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		// The certificate the CI issued must be exactly over the SP's root.
		if err := client.ValidateIndex("hist", &blk.Header, spRoot, idxCerts[0]); err != nil {
			t.Fatalf("block %d: certified root does not match SP root: %v", i, err)
		}
	}
}

// TestAggregateEndToEnd runs a verified aggregation through the facade.
func TestAggregateEndToEnd(t *testing.T) {
	dep := newSmallDeployment(t, dcert.SmallBank, 5)
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewHistoricalIndex("hist", "ct/")
	}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	client := dep.NewSuperlightClient()
	var lastRoot dcert.Hash
	for i := 0; i < 6; i++ {
		blk, blkCert, idxCerts, err := dep.MineAndCertifyHierarchical(12, []string{"hist"})
		if err != nil {
			t.Fatalf("MineAndCertifyHierarchical: %v", err)
		}
		if err := client.ValidateChain(&blk.Header, blkCert); err != nil {
			t.Fatalf("ValidateChain: %v", err)
		}
		ix, err := dep.SP().Index("hist")
		if err != nil {
			t.Fatalf("Index: %v", err)
		}
		if lastRoot, err = ix.Root(); err != nil {
			t.Fatalf("Root: %v", err)
		}
		if err := client.ValidateIndex("hist", &blk.Header, lastRoot, idxCerts[0]); err != nil {
			t.Fatalf("ValidateIndex: %v", err)
		}
	}
	root, _, err := client.IndexRoot("hist")
	if err != nil {
		t.Fatalf("IndexRoot: %v", err)
	}
	res, err := dep.SP().AggregateQuery("hist", dcert.AggCount, "ct/SB-0000/checking/cust-1", 0, 100)
	if err != nil {
		t.Fatalf("AggregateQuery: %v", err)
	}
	if err := dcert.VerifyAggregate(root, res); err != nil {
		t.Fatalf("VerifyAggregate: %v", err)
	}
}

// TestClientCatchesUpAfterOffline shows the superlight client's key UX win:
// after missing many blocks, one certificate validation brings it current —
// no backfill needed.
func TestClientCatchesUpAfterOffline(t *testing.T) {
	dep := newSmallDeployment(t, dcert.KVStore, 6)
	client := dep.NewSuperlightClient()

	// Client sees block 1...
	blk, cert, err := dep.MineAndCertify(5)
	if err != nil {
		t.Fatalf("MineAndCertify: %v", err)
	}
	if err := client.ValidateChain(&blk.Header, cert); err != nil {
		t.Fatalf("ValidateChain: %v", err)
	}
	before := client.StorageSize()

	// ...then goes offline for 15 blocks.
	var lastBlk *dcert.Block
	var lastCert *dcert.Certificate
	for i := 0; i < 15; i++ {
		lastBlk, lastCert, err = dep.MineAndCertify(5)
		if err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
	}

	// One validation catches up; storage stays constant.
	if err := client.ValidateChain(&lastBlk.Header, lastCert); err != nil {
		t.Fatalf("catch-up ValidateChain: %v", err)
	}
	hdr, _ := client.Latest()
	if hdr.Height != 16 {
		t.Fatalf("client height = %d, want 16", hdr.Height)
	}
	if client.StorageSize() != before {
		t.Fatalf("storage changed during catch-up: %d → %d", before, client.StorageSize())
	}
}

// TestIssuerPrunedStoreKeepsCertifying verifies a CI can drop deep history
// (its recursion only ever needs the previous block and certificate).
func TestIssuerPrunedStoreKeepsCertifying(t *testing.T) {
	dep := newSmallDeployment(t, dcert.KVStore, 7)
	client := dep.NewSuperlightClient()
	for i := 0; i < 10; i++ {
		if _, _, err := dep.MineAndCertify(5); err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
	}
	if dropped := dep.Issuer().Node().Store().Prune(2); dropped == 0 {
		t.Fatal("expected pruning to drop blocks")
	}
	// Certification continues across the pruning horizon.
	for i := 0; i < 3; i++ {
		blk, cert, err := dep.MineAndCertify(5)
		if err != nil {
			t.Fatalf("MineAndCertify after prune: %v", err)
		}
		if err := client.ValidateChain(&blk.Header, cert); err != nil {
			t.Fatalf("ValidateChain after prune: %v", err)
		}
	}
}
