package dcert_test

import (
	"testing"
	"time"

	"dcert"
)

// Chaos integration tests: drive a full multi-CI deployment through seeded
// fault plans — drops, duplicates, reordering, latency jitter, topic
// partitions, issuer crashes — and assert both safety (the client's tip was
// accepted through full certificate validation, so it matches the miner's
// chain exactly) and liveness (the client converges to the miner's tip).

// chaosRig is a deployment with a redundant certification plane and a
// followed superlight client.
type chaosRig struct {
	dep      *dcert.Deployment
	plane    *dcert.CertPlane
	client   *dcert.SuperlightClient
	follower *dcert.CertFollower
}

func newChaosRig(t *testing.T, seed int64, issuers int, plan *dcert.FaultPlan) (*chaosRig, func()) {
	return newChaosRigCost(t, seed, issuers, plan, dcert.EnclaveCostModel{})
}

func newChaosRigCost(t *testing.T, seed int64, issuers int, plan *dcert.FaultPlan, cost dcert.EnclaveCostModel) (*chaosRig, func()) {
	t.Helper()
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:    dcert.KVStore,
		Contracts:   4,
		Accounts:    8,
		Difficulty:  2,
		Seed:        seed,
		KeySpace:    30,
		EnclaveCost: cost,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	plane, err := dep.StartCertPlane(issuers)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	dep.Net().SetFaults(plan)
	client := dep.NewSuperlightClient()
	follower := dep.FollowCerts(client, dcert.FollowerConfig{StallDeadline: 15 * time.Millisecond})
	rig := &chaosRig{dep: dep, plane: plane, client: client, follower: follower}
	cleanup := func() {
		follower.Stop()
		plane.Stop()
		dep.Net().Close()
	}
	return rig, cleanup
}

// converge asserts liveness and safety: the follower reaches the miner's
// tip, and the header it accepted (through full certificate validation) is
// byte-identical to the miner's best header.
func (r *chaosRig) converge(t *testing.T) {
	t.Helper()
	tip := r.dep.Miner().Tip()
	if err := r.follower.WaitForHeight(tip.Header.Height, 20*time.Second); err != nil {
		t.Fatalf("liveness: %v", err)
	}
	hdr, cert := r.client.Latest()
	if hdr.Hash() != tip.Hash() {
		t.Fatalf("safety: client tip %s != miner tip %s", hdr.Hash(), tip.Hash())
	}
	if cert == nil || cert.Digest != dcert.BlockDigest(hdr) {
		t.Fatalf("safety: accepted certificate does not cover the adopted header")
	}
}

// TestChaosDropsAndDuplicates runs two CIs under heavy loss and duplication
// on the certificate stream. Lost bundles are recovered through the
// follower's stall-triggered pull of the newest certificate.
func TestChaosDropsAndDuplicates(t *testing.T) {
	rig, cleanup := newChaosRig(t, 101, 2, &dcert.FaultPlan{
		Seed: 101,
		Rules: []dcert.FaultRule{
			{Topic: dcert.TopicCerts, Drop: 0.4, Duplicate: 0.4},
		},
	})
	defer cleanup()

	for i := 0; i < 10; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("MineAndBroadcast(%d): %v", i, err)
		}
	}
	rig.converge(t)
}

// TestChaosReorderAndJitter delays and reorders certificate delivery so
// bundles arrive out of order and stale; the client's chain-selection rule
// must keep only the highest certified height and still converge.
func TestChaosReorderAndJitter(t *testing.T) {
	rig, cleanup := newChaosRig(t, 202, 2, &dcert.FaultPlan{
		Seed: 202,
		Rules: []dcert.FaultRule{
			{Topic: dcert.TopicCerts, Reorder: 0.6, ReorderDelay: 10 * time.Millisecond, Duplicate: 0.5, JitterMax: 5 * time.Millisecond},
		},
	})
	defer cleanup()

	for i := 0; i < 10; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("MineAndBroadcast(%d): %v", i, err)
		}
	}
	rig.converge(t)
	if st := rig.follower.Stats(); st.Accepted == 0 {
		t.Fatalf("follower accepted nothing: %+v", st)
	}
}

// TestChaosPartitionHealAndFailover is the full outage drill: the cert
// topic partitions while the primary CI crashes, the secondary carries the
// plane after the heal, then the primary recovers from its checkpoint and
// carries the plane alone after the secondary crashes. The client fails
// over between issuers transparently (one extra attestation check per new
// enclave) and still converges on the miner's tip.
func TestChaosPartitionHealAndFailover(t *testing.T) {
	rig, cleanup := newChaosRig(t, 303, 2, &dcert.FaultPlan{
		Seed: 303,
		Rules: []dcert.FaultRule{
			{Topic: dcert.TopicCerts, Drop: 0.15, Duplicate: 0.2},
		},
	})
	defer cleanup()
	net := rig.dep.Net()

	// Phase 1: healthy start.
	for i := 0; i < 3; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("phase 1: %v", err)
		}
	}

	// Phase 2: the cert topic partitions AND the primary CI crashes.
	// Blocks mined now reach no client; the secondary keeps certifying
	// into the void.
	net.Partition(dcert.TopicCerts)
	if err := rig.plane.Kill("ci0"); err != nil {
		t.Fatalf("Kill(ci0): %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("phase 2: %v", err)
		}
	}
	if live := rig.plane.Live(); len(live) != 1 || live[0] != "ci1" {
		t.Fatalf("live issuers during outage = %v", live)
	}

	// Phase 3: the partition heals. The client's stall-triggered pull reads
	// the newest certificate landed, which only the surviving secondary
	// issued — failover without the primary.
	net.Heal(dcert.TopicCerts)
	if err := rig.follower.WaitForHeight(rig.dep.Miner().Tip().Header.Height, 20*time.Second); err != nil {
		t.Fatalf("failover to ci1 after heal: %v", err)
	}

	// Phase 4: the primary restarts from its persisted checkpoint and
	// re-certifies only the blocks it missed; then the secondary crashes and
	// the restarted primary carries the plane alone.
	if err := rig.plane.Restart("ci0"); err != nil {
		t.Fatalf("Restart(ci0): %v", err)
	}
	if err := rig.plane.Kill("ci1"); err != nil {
		t.Fatalf("Kill(ci1): %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("phase 4: %v", err)
		}
	}
	ci0, err := rig.plane.Issuer("ci0")
	if err != nil {
		t.Fatalf("Issuer(ci0): %v", err)
	}
	// The restarted enclave certified only the post-checkpoint blocks: the
	// 3 missed during the outage plus the 3 mined after restart — never the
	// whole chain from genesis.
	if ecalls := ci0.Enclave().Stats().Ecalls; ecalls != 6 {
		t.Fatalf("restarted CI performed %d Ecalls, want 6 (3 catch-up + 3 new)", ecalls)
	}
	rig.converge(t)
}

// TestChaosPipelinedCrashRecovery kills a CI while its certification
// pipeline has blocks in flight: submitted, speculatively executed, but not
// yet certified. The crash must discard all speculation (the checkpoint
// describes only certified work), the surviving CI carries the plane, and
// the restarted CI re-certifies exactly the blocks past its checkpoint —
// no gap in its certificate chain and no block signed twice.
func TestChaosPipelinedCrashRecovery(t *testing.T) {
	// A sluggish enclave (2ms per transition) keeps several blocks in the
	// speculative stages when the kill lands.
	rig, cleanup := newChaosRigCost(t, 404, 2, &dcert.FaultPlan{
		Seed: 404,
		Rules: []dcert.FaultRule{
			{Topic: dcert.TopicCerts, Drop: 0.2, Duplicate: 0.2},
		},
	}, dcert.EnclaveCostModel{TransitionLatency: 2 * time.Millisecond, ComputeFactor: 1.25})
	defer cleanup()

	if err := rig.plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}

	// Phase 1: stream blocks through the pipelines, then kill ci0 while its
	// pipeline is still draining them.
	for i := 0; i < 4; i++ {
		if _, err := rig.plane.MineAndBroadcastPipelined(5); err != nil {
			t.Fatalf("phase 1: %v", err)
		}
	}
	if err := rig.plane.Kill("ci0"); err != nil {
		t.Fatalf("Kill(ci0): %v", err)
	}
	ckptHeight, err := rig.plane.CheckpointHeight("ci0")
	if err != nil {
		t.Fatalf("CheckpointHeight: %v", err)
	}

	// Phase 2: the surviving CI carries the plane alone.
	for i := 0; i < 3; i++ {
		if _, err := rig.plane.MineAndBroadcastPipelined(5); err != nil {
			t.Fatalf("phase 2: %v", err)
		}
	}

	// Phase 3: restart. Catch-up re-certifies every block after the
	// checkpoint — whatever was speculative at the kill is re-executed and
	// re-signed by the fresh enclave, not recovered from the dead one.
	minerBestAtRestart := rig.dep.Miner().Tip().Header.Height
	if err := rig.plane.Restart("ci0"); err != nil {
		t.Fatalf("Restart(ci0): %v", err)
	}
	const minedAfterRestart = 2
	for i := 0; i < minedAfterRestart; i++ {
		if _, err := rig.plane.MineAndBroadcastPipelined(5); err != nil {
			t.Fatalf("phase 3: %v", err)
		}
	}
	if err := rig.plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}

	ci0, err := rig.plane.Issuer("ci0")
	if err != nil {
		t.Fatalf("Issuer(ci0): %v", err)
	}
	// No double-signing, no gaps: one Ecall per block from the checkpoint to
	// the final tip, and nothing before the checkpoint.
	wantEcalls := (minerBestAtRestart - ckptHeight) + minedAfterRestart
	if ecalls := ci0.Enclave().Stats().Ecalls; uint64(ecalls) != wantEcalls {
		t.Fatalf("restarted CI performed %d Ecalls, want %d (certified %d..%d)",
			ecalls, wantEcalls, ckptHeight+1, minerBestAtRestart+minedAfterRestart)
	}
	minerStore := rig.dep.Miner().Store()
	for h := uint64(1); h <= minerStore.BestHeight(); h++ {
		blk, err := minerStore.AtHeight(h)
		if err != nil {
			t.Fatalf("AtHeight(%d): %v", h, err)
		}
		seg := ci0.SegmentCovering(h)
		if h < ckptHeight && seg != nil {
			t.Fatalf("restarted CI holds a certificate for pre-checkpoint height %d", h)
		}
		if h >= ckptHeight && seg == nil {
			t.Fatalf("certificate chain gap at height %d (checkpoint %d)", h, ckptHeight)
		}
		if seg != nil && seg.Headers[h-seg.Start()].Hash() != blk.Hash() {
			t.Fatalf("the segment covering height %d certifies another block than the miner's", h)
		}
	}
	if ci0.Node().Tip().Hash() != rig.dep.Miner().Tip().Hash() {
		t.Fatal("restarted CI replica diverged from the miner")
	}
	rig.converge(t)
}

// TestChaosFaultCounterReconciliation arms the instrumentation plane before
// a lossy run and asserts the fault fabric's registry counters reconcile
// exactly with the injection ledger the fault layer keeps for itself: every
// injected drop/duplicate/reorder is counted, none are invented, and
// delivered = published - dropped - partitioned + duplicated on every topic.
func TestChaosFaultCounterReconciliation(t *testing.T) {
	rig, cleanup := newChaosRig(t, 707, 2, &dcert.FaultPlan{
		Seed: 707,
		Rules: []dcert.FaultRule{
			{Topic: dcert.TopicCerts, Drop: 0.35, Duplicate: 0.35, Reorder: 0.4, ReorderDelay: 5 * time.Millisecond},
		},
	})
	defer cleanup()
	// Attach the registry before the first publish so both ledgers observe
	// the same event stream from the start.
	reg, _ := rig.dep.EnableObservability(nil)

	for i := 0; i < 12; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("MineAndBroadcast(%d): %v", i, err)
		}
	}
	rig.converge(t)

	reconcileCertLedger(t, reg, rig.dep.FaultTally(dcert.TopicCerts))
}

// reconcileCertLedger asserts the registry's counters for the certificate
// topic equal the fault layer's own injection ledger, that delivered =
// published - dropped - partitioned + duplicated, and that the seeded plan
// injected every kind of fault it names (drop, duplicate, reorder), so the
// reconciliation is not vacuous.
func reconcileCertLedger(t *testing.T, reg *dcert.MetricsRegistry, tally dcert.NetFaultTally) {
	t.Helper()
	counter := func(name string) uint64 {
		return reg.Counter(name, "", dcert.MetricLabel("topic", dcert.TopicCerts)).Value()
	}
	got := dcert.NetFaultTally{
		Published:   counter("dcert_net_published_total"),
		Dropped:     counter("dcert_net_dropped_total"),
		Partitioned: counter("dcert_net_partitioned_total"),
		Duplicated:  counter("dcert_net_duplicated_total"),
		Reordered:   counter("dcert_net_reordered_total"),
	}
	if got != tally {
		t.Fatalf("registry counters %+v != injection ledger %+v", got, tally)
	}
	delivered := counter("dcert_net_delivered_total")
	if want := tally.Published - tally.Dropped - tally.Partitioned + tally.Duplicated; delivered != want {
		t.Fatalf("delivered %d, want published-dropped-partitioned+duplicated = %d (%+v)", delivered, want, tally)
	}
	if tally.Dropped == 0 || tally.Duplicated == 0 || tally.Reordered == 0 {
		t.Fatalf("seeded plan left a fault kind uninjected (%+v); reconciliation was vacuous", tally)
	}
}

// waitForPull polls until the follower has pulled at least once.
func waitForPull(t *testing.T, f *dcert.CertFollower) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for f.Stats().Rerequests == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never pulled: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosStalledFollowerPullsTheTip is the counted feed: a follower cut
// off from the certificate topic catches up by pulling the newest landed
// certificate, and its stalls cost the fabric nothing. The topic carries
// exactly the certificates the issuers landed — one per live issuer per
// block — and no broadcast made on a stalled client's behalf.
func TestChaosStalledFollowerPullsTheTip(t *testing.T) {
	const issuers, blocks = 2, 6
	rig, cleanup := newChaosRig(t, 505, issuers, &dcert.FaultPlan{Seed: 505})
	defer cleanup()
	net := rig.dep.Net()

	net.Partition(dcert.TopicCerts)
	for i := 0; i < blocks/2; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("partitioned round %d: %v", i, err)
		}
	}
	waitForPull(t, rig.follower)
	if err := rig.follower.WaitForHeight(rig.dep.Miner().Tip().Header.Height, 20*time.Second); err != nil {
		t.Fatalf("catch-up by pull under a partition: %v", err)
	}
	net.Heal(dcert.TopicCerts)
	for i := blocks / 2; i < blocks; i++ {
		if _, err := rig.plane.MineAndBroadcast(5); err != nil {
			t.Fatalf("healed round %d: %v", i, err)
		}
	}
	rig.converge(t)

	tally := rig.dep.FaultTally(dcert.TopicCerts)
	if tally.Published != issuers*blocks {
		t.Fatalf("certificate topic carried %d publishes, want %d landed certificates (%+v)",
			tally.Published, issuers*blocks, tally)
	}
	if tally.Partitioned != issuers*blocks/2 {
		t.Fatalf("partition cut %d publishes, want the %d landed while it was up", tally.Partitioned, issuers*blocks/2)
	}
}
