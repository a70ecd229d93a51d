package dcert_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dcert"
)

// Chaos over the wire: the same seeded fault plans the in-process chaos
// suite uses, but with superlight clients attached through real TCP
// connections. Faults inject at the hub — the transport seam every socket
// frame crosses — so drops, duplicates, and reordering constrain traffic
// that genuinely traveled the network, and the instrumentation counters
// must still reconcile exactly with the fault layer's own ledger.

// TestChaosNetSocketTransport runs a lossy certification plane with two
// remote followers over loopback TCP and asserts safety (each remote
// client's certified tip is byte-identical to the miner's), liveness
// (both converge despite 35% cert drops), and accounting (registry
// counters == injection ledger on the certificate topic).
func TestChaosNetSocketTransport(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       808,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer dep.Net().Close()
	plane, err := dep.StartCertPlane(2)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	// Attach the registry before the first publish so both ledgers observe
	// the same event stream from the start.
	reg, _ := dep.EnableObservability(nil)

	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()

	dep.Net().SetFaults(&dcert.FaultPlan{
		Seed: 808,
		Rules: []dcert.FaultRule{
			{Topic: dcert.TopicCerts, Drop: 0.35, Duplicate: 0.35, Reorder: 0.4, ReorderDelay: 5 * time.Millisecond},
		},
	})

	// Two independent TCP clients, each with its own superlight state and
	// follower. A stalled follower pulls the tip segment over its own
	// connection: an RPC, which the topic fault plan does not touch.
	type remote struct {
		wc       *dcert.WireClient
		client   *dcert.SuperlightClient
		follower *dcert.CertFollower
	}
	remotes := make([]*remote, 2)
	for i := range remotes {
		name := fmt.Sprintf("net-follower-%d", i)
		wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: name})
		if err != nil {
			t.Fatalf("DialWire %s: %v", name, err)
		}
		client, err := dcert.NewRemoteSuperlightClient(wc)
		if err != nil {
			t.Fatalf("NewRemoteSuperlightClient %s: %v", name, err)
		}
		follower := dcert.FollowCertsOver(wc, client, dcert.FollowerConfig{StallDeadline: 15 * time.Millisecond})
		remotes[i] = &remote{wc: wc, client: client, follower: follower}
	}
	defer func() {
		for _, r := range remotes {
			r.follower.Stop()
			r.wc.Close()
		}
	}()

	for i := 0; i < 12; i++ {
		if _, err := plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("MineAndBroadcast(%d): %v", i, err)
		}
	}

	tip := dep.Miner().Tip()
	for i, r := range remotes {
		if err := r.follower.WaitForHeight(tip.Header.Height, 30*time.Second); err != nil {
			t.Fatalf("remote %d liveness: %v (follower %+v)", i, err, r.follower.Stats())
		}
		hdr, cert := r.client.Latest()
		if hdr.Hash() != tip.Hash() {
			t.Fatalf("remote %d safety: client tip %s != miner tip %s", i, hdr.Hash(), tip.Hash())
		}
		if cert == nil || cert.Digest != dcert.BlockDigest(hdr) {
			t.Fatalf("remote %d safety: accepted certificate does not cover the adopted header", i)
		}
	}

	// Reconcile the instrumentation plane against the fault layer's own
	// injection ledger — now with socket traffic in the mix. The counters
	// live at the hub, which every wire frame passes through, so the
	// identity delivered = published - dropped - partitioned + duplicated
	// must hold exactly.
	reconcileCertLedger(t, reg, dep.FaultTally(dcert.TopicCerts))

	// The wire itself must have carried the stream: each remote connection
	// subscribed and received topic frames.
	st := srv.Stats()
	if st.Accepted != 2 || st.MessagesSent == 0 {
		t.Fatalf("server stats %+v: expected 2 remote conns with topic traffic", st)
	}
}

// TestChaosNetSlowConsumer pins the wire's slow-consumer policy under
// chaos: a deliberately tiny server-side send queue forces drops at the
// socket (accounted in SlowDrops), while the follower still converges via
// catch-up — backpressure degrades a remote subscriber, never the node.
func TestChaosNetSlowConsumer(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       909,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer dep.Net().Close()
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()

	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0", QueueDepth: 1})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()

	wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "slow"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	follower := dcert.FollowCertsOver(wc, client, dcert.FollowerConfig{StallDeadline: 10 * time.Millisecond})
	defer follower.Stop()

	for i := 0; i < 10; i++ {
		if _, err := plane.MineAndBroadcast(4); err != nil {
			t.Fatalf("MineAndBroadcast(%d): %v", i, err)
		}
	}
	tip := dep.Miner().Tip()
	if err := follower.WaitForHeight(tip.Header.Height, 30*time.Second); err != nil {
		t.Fatalf("liveness under backpressure: %v (follower %+v, server %+v)",
			err, follower.Stats(), srv.Stats())
	}
	hdr, _ := client.Latest()
	if hdr.Hash() != tip.Hash() {
		t.Fatalf("safety: client tip %s != miner tip %s", hdr.Hash(), tip.Hash())
	}
}

// TestChaosNetStalledFollowerCostsOneRequestPerPull is the counted feed over
// TCP: a remote follower cut off from the certificate topic catches up by
// pulling the node's tip segment, every pull is one RPC on the node's wire
// server, and the topic still carries only the landed certificates.
func TestChaosNetStalledFollowerCostsOneRequestPerPull(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       606,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer dep.Net().Close()
	const issuers, blocks = 2, 6
	plane, err := dep.StartCertPlane(issuers)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	dep.Net().SetFaults(&dcert.FaultPlan{Seed: 606})

	wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "stalled"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	requestsBefore := srv.Stats().Requests
	follower := dcert.FollowCertsOver(wc, client, dcert.FollowerConfig{StallDeadline: 15 * time.Millisecond})
	defer follower.Stop()

	dep.Net().Partition(dcert.TopicCerts)
	for i := 0; i < blocks/2; i++ {
		if _, err := plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("partitioned round %d: %v", i, err)
		}
	}
	waitForPull(t, follower)
	if err := follower.WaitForHeight(dep.Miner().Tip().Header.Height, 20*time.Second); err != nil {
		t.Fatalf("catch-up by pull under a partition: %v (server %+v)", err, srv.Stats())
	}
	dep.Net().Heal(dcert.TopicCerts)
	for i := blocks / 2; i < blocks; i++ {
		if _, err := plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("healed round %d: %v", i, err)
		}
	}
	tip := dep.Miner().Tip()
	if err := follower.WaitForHeight(tip.Header.Height, 20*time.Second); err != nil {
		t.Fatalf("liveness after heal: %v", err)
	}
	if hdr, _ := client.Latest(); hdr.Hash() != tip.Hash() {
		t.Fatalf("safety: client tip %s != miner tip %s", hdr.Hash(), tip.Hash())
	}

	follower.Stop() // settle: every pull has its answer
	pulls, requests := follower.Stats().Rerequests, srv.Stats().Requests-requestsBefore
	if requests != pulls {
		t.Fatalf("server served %d requests for %d pulls", requests, pulls)
	}
	if tally := dep.FaultTally(dcert.TopicCerts); tally.Published != issuers*blocks {
		t.Fatalf("certificate topic carried %d publishes, want %d landed certificates (%+v)",
			tally.Published, issuers*blocks, tally)
	}
}

// TestChaosNetFollowerPullsPastKilledPrimary is failover over TCP: a remote
// follower stalled through a partition and a primary crash must pull the tip
// the surviving secondary certified, not the dead primary's last one. The
// primary then restarts while the follower keeps pulling (the wire's tip
// route reads the primary Restart swaps), and the client tracks the chain
// it certifies.
func TestChaosNetFollowerPullsPastKilledPrimary(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       707,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer dep.Net().Close()
	plane, err := dep.StartCertPlane(2)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	dep.Net().SetFaults(&dcert.FaultPlan{Seed: 707}) // no rules: Partition alone cuts
	wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "failover"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	follower := dcert.FollowCertsOver(wc, client, dcert.FollowerConfig{StallDeadline: 15 * time.Millisecond})
	defer follower.Stop()

	mine := func(phase string, rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			if _, err := plane.MineAndBroadcast(5); err != nil {
				t.Fatalf("%s round %d: %v", phase, i, err)
			}
		}
	}
	mine("healthy", 2)
	if err := follower.WaitForHeight(dep.Miner().Tip().Header.Height, 20*time.Second); err != nil {
		t.Fatalf("healthy start: %v", err)
	}

	dep.Net().Partition(dcert.TopicCerts)
	if err := plane.Kill("ci0"); err != nil {
		t.Fatalf("Kill(ci0): %v", err)
	}
	mine("outage", 3)
	dep.Net().Heal(dcert.TopicCerts)
	tip := dep.Miner().Tip()
	if err := follower.WaitForHeight(tip.Header.Height, 20*time.Second); err != nil {
		t.Fatalf("failover to ci1 over TCP: %v (server %+v)", err, srv.Stats())
	}
	if hdr, _ := client.Latest(); hdr.Hash() != tip.Hash() {
		t.Fatalf("safety: client tip %s != miner tip %s", hdr.Hash(), tip.Hash())
	}

	if err := plane.Restart("ci0"); err != nil {
		t.Fatalf("Restart(ci0): %v", err)
	}
	if err := plane.Kill("ci1"); err != nil {
		t.Fatalf("Kill(ci1): %v", err)
	}
	mine("restarted", 2)
	tip = dep.Miner().Tip()
	if err := follower.WaitForHeight(tip.Header.Height, 20*time.Second); err != nil {
		t.Fatalf("after primary restart: %v", err)
	}
	if hdr, _ := client.Latest(); hdr.Hash() != tip.Hash() {
		t.Fatalf("safety after restart: client tip %s != miner tip %s", hdr.Hash(), tip.Hash())
	}
}

// servePastKilledPrimary serves a two-issuer deployment over TCP, mines two
// blocks, kills the primary ci0 and mines three more that only ci1
// certifies. It returns the plane and a client connection; the miner's tip
// is at height 5.
func servePastKilledPrimary(t *testing.T, seed int64) (*dcert.Deployment, *dcert.CertPlane, *dcert.WireClient) {
	t.Helper()
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       seed,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	t.Cleanup(dep.Net().Close)
	plane, err := dep.StartCertPlane(2)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	t.Cleanup(plane.Stop)
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "past-killed-primary"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	t.Cleanup(func() { wc.Close() })

	mine := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			if _, err := plane.MineAndBroadcast(5); err != nil {
				t.Fatalf("mine: %v", err)
			}
		}
	}
	mine(2)
	if err := plane.Kill("ci0"); err != nil {
		t.Fatalf("Kill(ci0): %v", err)
	}
	mine(3)
	if h := dep.Miner().Tip().Header.Height; h != 5 {
		t.Fatalf("miner tip at %d, want 5", h)
	}
	return dep, plane, wc
}

// TestChaosNetLatestBundlePastKilledPrimary: dcert/cert-latest answers the
// deployment's newest certificate, so with the primary killed a remote
// client still gets the tip the secondary certified, and a fresh superlight
// client accepts it.
func TestChaosNetLatestBundlePastKilledPrimary(t *testing.T) {
	dep, _, wc := servePastKilledPrimary(t, 708)
	tip := dep.Miner().Tip()
	bundle, err := dcert.RequestLatestBundle(wc)
	if err != nil {
		t.Fatalf("RequestLatestBundle: %v", err)
	}
	if bundle == nil {
		t.Fatal("no latest bundle")
	}
	if bundle.Header.Height != tip.Header.Height {
		t.Fatalf("latest bundle at height %d, want the secondary's certificate at %d", bundle.Header.Height, tip.Header.Height)
	}
	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	if err := client.ValidateChain(bundle.Header, bundle.Cert); err != nil {
		t.Fatalf("ValidateChain refused the latest bundle: %v", err)
	}
}

// TestChaosNetBootstrapPastKilledPrimary: dcert/bootstrap from the genesis
// anchor answers the deployment's newest certificate, so with the primary
// killed a fresh remote client still bootstraps to the tip the secondary
// certified.
func TestChaosNetBootstrapPastKilledPrimary(t *testing.T) {
	dep, _, wc := servePastKilledPrimary(t, 709)
	tip := dep.Miner().Tip()
	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	genesis := dep.Issuer().Node().Store().Genesis()
	fetches, err := dcert.BootstrapSublinearOver(wc, client, 0, genesis)
	if err != nil {
		t.Fatalf("BootstrapSublinearOver: %v", err)
	}
	hdr, _ := client.Latest()
	if hdr.Height != tip.Header.Height || hdr.Hash() != tip.Hash() {
		t.Fatalf("bootstrapped to height %d, want the secondary's certificate at %d", hdr.Height, tip.Header.Height)
	}
	if fetches != 1 {
		t.Fatalf("genesis bootstrap fetched %d segments, want the tip alone", fetches)
	}
}

// TestChaosNetMidChainRoutesPastKilledPrimary: the routes that read below
// the tip — dcert/bootstrap from a mid-chain anchor and dcert/cert-segment
// by height — answer from the issuer that certified the newest tip, so with
// the primary killed a client anchored mid-chain bootstraps to the tip the
// secondary certified, and a segment by height is the secondary's.
func TestChaosNetMidChainRoutesPastKilledPrimary(t *testing.T) {
	dep, plane, wc := servePastKilledPrimary(t, 710)
	tip := dep.Miner().Tip()
	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		t.Fatalf("NewRemoteSuperlightClient: %v", err)
	}
	anchor, err := dep.Miner().Store().HashAt(1)
	if err != nil {
		t.Fatalf("HashAt(1): %v", err)
	}
	if _, err := dcert.BootstrapSublinearOver(wc, client, 1, anchor); err != nil {
		t.Fatalf("BootstrapSublinearOver from height 1: %v", err)
	}
	if hdr, _ := client.Latest(); hdr.Height != tip.Header.Height || hdr.Hash() != tip.Hash() {
		t.Fatalf("anchored at height 1, bootstrapped to height %d, want the secondary's certificate at %d", hdr.Height, tip.Header.Height)
	}

	seg, err := dcert.RequestSegment(wc, 4)
	if err != nil {
		t.Fatalf("RequestSegment(4): %v", err)
	}
	if seg == nil {
		t.Fatal("no segment served for height 4, which the secondary certified")
	}
	ci1, err := plane.Issuer("ci1")
	if err != nil {
		t.Fatalf("Issuer(ci1): %v", err)
	}
	if want := ci1.SegmentCovering(4); !bytes.Equal(seg.Marshal(), want.Marshal()) {
		t.Fatal("the segment served for height 4 is not the secondary's")
	}
}
