package dcert_test

import (
	"errors"
	"testing"
	"time"

	"dcert"
	"dcert/internal/storage/vfs"
)

// Disk chaos tests: drive a durable deployment through seeded disk-fault
// plans — failed writes, short writes, failed and lying fsyncs, power cuts
// with torn corrupted tails — and assert the recovery invariant: reopening
// the data directory always yields a gapless prefix of the certified chain,
// never serves a corrupt record, and the resumed issuer never re-signs a
// recovered height (its enclave performs exactly one ecall per new block).
//
// Run them through `make chaos-disk`; like the network chaos suite they are
// only considered passed under -race.

// diskChaosConfig builds the durable deployment config for one plan.
func diskChaosConfig(dir string, fs vfs.FS, fsync time.Duration, seed int64) dcert.Config {
	return dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       seed,
		KeySpace:   30,
		Storage: &dcert.StorageConfig{
			Dir:           dir,
			FS:            fs,
			FsyncInterval: fsync,
		},
	}
}

// minedChain snapshots the miner's authoritative chain (the in-memory truth
// the disk must recover a prefix of).
func minedChain(t *testing.T, dep *dcert.Deployment) []dcert.Hash {
	t.Helper()
	store := dep.Miner().Store()
	hashes := make([]dcert.Hash, 0, store.BestHeight()+1)
	for h := uint64(0); h <= store.BestHeight(); h++ {
		blk, err := store.AtHeight(h)
		if err != nil {
			t.Fatalf("miner AtHeight(%d): %v", h, err)
		}
		hashes = append(hashes, blk.Hash())
	}
	return hashes
}

// assertRecovered checks the crash-recovery invariant against the pre-crash
// chain and returns the resumed deployment's recovered tip.
func assertRecovered(t *testing.T, dep *dcert.Deployment, mined []dcert.Hash) uint64 {
	t.Helper()
	rec := dep.StorageRecovery()
	if rec == nil {
		t.Fatal("resumed deployment reports no recovery")
	}
	if len(rec.Blocks) == 0 {
		t.Fatal("recovery lost the genesis")
	}
	if got, max := rec.TipHeight(), uint64(len(mined)-1); got > max {
		t.Fatalf("recovered tip %d beyond mined tip %d", got, max)
	}
	for i, blk := range rec.Blocks {
		if blk.Header.Height != uint64(i) {
			t.Fatalf("recovered chain has a gap: block %d at height %d", i, blk.Header.Height)
		}
		if blk.Hash() != mined[i] {
			t.Fatalf("recovered block %d is not the mined block (corrupt record served)", i)
		}
	}
	// The recovered tip certificate must verify end-to-end: a superlight
	// client pinned to the resumed authority accepts it through full
	// recursive validation. The certificate may cover a K-block segment
	// ending at the tip, so recover the covered suffix first — a
	// single-block certificate matches at suffix length 1.
	tip := rec.TipHeight()
	tipCert, ok := rec.Certs[rec.Blocks[tip].Hash()]
	if !ok && tip > 0 {
		t.Fatalf("recovered tip %d has no certificate on the chain log", tip)
	}
	if ok {
		var headers []*dcert.Header
		matched := false
		for k := uint64(0); k < tip; k++ {
			headers = append([]*dcert.Header{&rec.Blocks[tip-k].Header}, headers...)
			if dcert.SegmentDigest(headers) == tipCert.Digest {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatal("tip certificate covers no chain suffix at the recovered tip")
		}
		client := dep.NewSuperlightClient()
		if err := client.ValidateSegment(&dcert.SegmentCert{Headers: headers, Cert: tipCert}); err != nil {
			t.Fatalf("recovered tip certificate rejected: %v", err)
		}
	}
	return tip
}

// assertResumes mines more blocks on the resumed deployment and checks both
// liveness (the chain extends, certificates validate) and the no-double-sign
// invariant (exactly one ecall per new block: the fresh enclave adopted the
// checkpoint instead of re-certifying recovered heights).
func assertResumes(t *testing.T, dep *dcert.Deployment, tip uint64, more int) {
	t.Helper()
	client := dep.NewSuperlightClient()
	before := dep.Issuer().Enclave().Stats().Ecalls
	for i := 0; i < more; i++ {
		blk, cert, err := dep.MineAndCertify(3)
		if err != nil {
			t.Fatalf("mine after resume: %v", err)
		}
		if err := client.ValidateChain(&blk.Header, cert); err != nil {
			t.Fatalf("client rejects post-resume block %d: %v", blk.Header.Height, err)
		}
	}
	if got := dep.Miner().Store().BestHeight(); got != tip+uint64(more) {
		t.Fatalf("resumed chain at height %d, want %d", got, tip+uint64(more))
	}
	if got := dep.Issuer().Enclave().Stats().Ecalls - before; got != uint64(more) {
		t.Fatalf("issuer made %d ecalls for %d new blocks (re-signed a recovered height?)", got, more)
	}
}

func TestChaosDiskFaultPlans(t *testing.T) {
	cases := []struct {
		name   string
		plan   vfs.FaultPlan
		fsync  time.Duration
		blocks int
	}{
		{
			// A write fails outright mid-mining with per-append fsync: the
			// crash point is the injected error itself.
			name:   "failed write, per-record fsync",
			plan:   vfs.FaultPlan{Seed: 101, FailWriteOp: 14},
			blocks: 10,
		},
		{
			// Group commit with an effectively infinite interval, then the
			// power dies: most of the run was only in page cache, and the
			// surviving torn tail carries a flipped byte.
			name:   "power cut with corrupted torn tail",
			plan:   vfs.FaultPlan{Seed: 202, TornTail: 0.6, FlipInTorn: true},
			fsync:  time.Hour,
			blocks: 8,
		},
		{
			// A lying disk: one fsync silently does nothing, a later one
			// fails loudly, then the power dies.
			name:   "omitted and failed fsync",
			plan:   vfs.FaultPlan{Seed: 303, OmitSyncOp: 9, FailSyncOp: 17, TornTail: 0.3, FlipInTorn: true},
			blocks: 8,
		},
		{
			// A torn write at the syscall boundary: half a frame lands.
			name:   "short write",
			plan:   vfs.FaultPlan{Seed: 404, ShortWriteOp: 11},
			blocks: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			faulty := vfs.NewFault(vfs.OS{}, tc.plan)
			dep, err := dcert.NewDeployment(diskChaosConfig(dir, faulty, tc.fsync, tc.plan.Seed))
			if err != nil {
				t.Fatalf("NewDeployment: %v", err)
			}
			for i := 0; i < tc.blocks; i++ {
				if _, _, err := dep.MineAndCertify(3); err != nil {
					if !errors.Is(err, vfs.ErrInjected) {
						t.Fatalf("mining failed with a non-injected error: %v", err)
					}
					break // the crash point
				}
			}
			mined := minedChain(t, dep)
			faulty.PowerCut()
			// Crash: the deployment is abandoned without Close; only what the
			// fault FS considered durable is on disk.

			resumed, err := dcert.OpenDeployment(diskChaosConfig(dir, nil, tc.fsync, tc.plan.Seed))
			if err != nil {
				t.Fatalf("OpenDeployment after crash: %v", err)
			}
			defer resumed.Close()
			tip := assertRecovered(t, resumed, mined)
			assertResumes(t, resumed, tip, 3)
		})
	}
}

// TestChaosDiskMidSegmentKill crashes the primary issuer mid-segment: the
// segment committer has certified one full segment (heights 1–4) while two
// more blocks (5–6) sit in its open batch behind an hour-long deadline. The
// kill aborts the pipeline — in-flight speculation dies with the enclave —
// so the persisted checkpoint lands exactly on the segment boundary. Restart
// resumes the recursion from the segment certificate (the suffix search in
// ResumeIssuer) and re-certifies ONLY the uncertified suffix, as one segment
// with one ecall: the certified prefix stays gapless and no height is ever
// double-signed.
func TestChaosDiskMidSegmentKill(t *testing.T) {
	dir := t.TempDir()
	dep, err := dcert.NewDeployment(diskChaosConfig(dir, nil, 0, 606))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	err = plane.StartPipelines(dcert.PipelineConfig{
		Workers: 2,
		Segment: &dcert.SegmentPolicy{MaxBlocks: 4, MaxDelay: time.Hour},
	})
	if err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := plane.MineAndBroadcastPipelined(3); err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
	}
	// Wait for the first segment to certify; blocks 5–6 stay speculative in
	// the open batch (the deadline never fires).
	iss, err := plane.Issuer("ci0")
	if err != nil {
		t.Fatalf("Issuer: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for iss.Node().Tip().Header.Height < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("first segment never certified (tip %d)", iss.Node().Tip().Header.Height)
		}
		time.Sleep(time.Millisecond)
	}
	if h := iss.Node().Tip().Header.Height; h != 4 {
		t.Fatalf("certified tip %d, want the segment boundary 4", h)
	}

	if err := plane.Kill("ci0"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	ckh, err := plane.CheckpointHeight("ci0")
	if err != nil {
		t.Fatalf("CheckpointHeight: %v", err)
	}
	if ckh != 4 {
		t.Fatalf("checkpoint height %d, want the segment boundary 4 (speculation must die with the enclave)", ckh)
	}

	if err := plane.Restart("ci0"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	iss, err = plane.Issuer("ci0")
	if err != nil {
		t.Fatalf("Issuer after restart: %v", err)
	}
	if h := iss.Node().Tip().Header.Height; h != 6 {
		t.Fatalf("resumed certified tip %d, want 6", h)
	}
	// The fresh enclave re-certified only the uncertified suffix [5,6], as
	// one segment: exactly one ecall, no recovered height re-signed.
	if got := iss.Enclave().Stats().Ecalls; got != 1 {
		t.Fatalf("resumed enclave made %d ecalls for 2 missed blocks, want 1 (one segment)", got)
	}
	seg := iss.LatestSegment()
	if seg == nil || seg.Start() != 5 || seg.End() != 6 {
		t.Fatalf("catch-up segment %+v, want cover [5,6]", seg)
	}
	if err := dep.NewSuperlightClient().ValidateSegment(seg); err != nil {
		t.Fatalf("catch-up segment rejected: %v", err)
	}

	// The restarted slot keeps amortizing: one more full segment, one ecall.
	before := iss.Enclave().Stats().Ecalls
	for i := 0; i < 4; i++ {
		if _, err := plane.MineAndBroadcastPipelined(3); err != nil {
			t.Fatalf("mine post-restart block %d: %v", i+1, err)
		}
	}
	if err := plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}
	plane.Stop()
	if got := iss.Enclave().Stats().Ecalls - before; got != 1 {
		t.Fatalf("4 post-restart blocks took %d ecalls, want 1", got)
	}

	// Full process restart: the mixed history (segment certificates
	// throughout) must recover gapless from disk, and the segment checkpoint
	// must re-validate through the suffix-aware path.
	mined := minedChain(t, dep)
	if err := dep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	resumed, err := dcert.OpenDeployment(diskChaosConfig(dir, nil, 0, 606))
	if err != nil {
		t.Fatalf("OpenDeployment: %v", err)
	}
	defer resumed.Close()
	tip := assertRecovered(t, resumed, mined)
	if tip != 10 {
		t.Fatalf("recovered tip %d, want 10", tip)
	}
	assertResumes(t, resumed, tip, 3)
}

// TestChaosDiskPowerCutPipelined crashes a deployment running the full
// redundant certification plane with pipelined certification — blocks are
// journaled uncertified at submit time and certificates attach from
// concurrent pipeline consumers — then recovers it.
func TestChaosDiskPowerCutPipelined(t *testing.T) {
	dir := t.TempDir()
	faulty := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{Seed: 505, TornTail: 0.5, FlipInTorn: true})
	dep, err := dcert.NewDeployment(diskChaosConfig(dir, faulty, time.Hour, 505))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	plane, err := dep.StartCertPlane(2)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	if err := plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := plane.MineAndBroadcastPipelined(3); err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
	}
	if err := plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}
	plane.Stop()
	mined := minedChain(t, dep)
	faulty.PowerCut()

	resumed, err := dcert.OpenDeployment(diskChaosConfig(dir, nil, time.Hour, 505))
	if err != nil {
		t.Fatalf("OpenDeployment after crash: %v", err)
	}
	defer resumed.Close()
	tip := assertRecovered(t, resumed, mined)
	assertResumes(t, resumed, tip, 3)
}

// TestChaosDiskPipelinedSnapshots: the pipelined entry journals a block
// first and its certificate when it lands, so the periodic snapshot has to
// fire at the landing — it never did, the state WAL grew without bound, and
// a crash replayed all of it. Mine through the pipelined entry with a
// snapshot every 4 certified blocks, see the snapshots happen, cut the power,
// and resume on the fast path: from the last snapshot plus the few WAL
// records after it, not from the WAL alone.
func TestChaosDiskPipelinedSnapshots(t *testing.T) {
	const blocks, every = 10, 4
	dir := t.TempDir()
	faulty := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{})
	cfg := diskChaosConfig(dir, faulty, 0, 606)
	cfg.Storage.SnapshotEvery = every
	dep, err := dcert.NewDeployment(cfg)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	reg, _ := dep.EnableObservability(nil)
	snapshots := reg.Counter("dcert_storage_snapshots_total", "")
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	if err := plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := plane.MineAndBroadcastPipelined(3); err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
	}
	if err := plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}
	plane.Stop()
	if got := snapshots.Value(); got != blocks/every {
		t.Fatalf("%d snapshots over %d pipelined blocks, want %d (one per %d certified)", got, blocks, blocks/every, every)
	}
	// The routine timed each of its serial steps once per block.
	for _, step := range []string{"gen", "propose", "journal", "submit", "serve"} {
		h := reg.Histogram("dcert_mine_step_seconds", "", nil, dcert.MetricLabel("step", step))
		if got := h.Count(); got != blocks {
			t.Fatalf("dcert_mine_step_seconds{step=%q} observed %d blocks, want %d", step, got, blocks)
		}
	}
	mined := minedChain(t, dep)
	faulty.PowerCut()

	cfg = diskChaosConfig(dir, nil, 0, 606)
	cfg.Storage.SnapshotEvery = every
	resumed, err := dcert.OpenDeployment(cfg)
	if err != nil {
		t.Fatalf("OpenDeployment after crash: %v", err)
	}
	defer resumed.Close()
	if tip := assertRecovered(t, resumed, mined); tip != blocks {
		t.Fatalf("recovered tip %d, want %d (every append was synced)", tip, blocks)
	}
	rec := resumed.StorageRecovery()
	if rec.State == nil || rec.StateHeight != blocks {
		t.Fatalf("state image at height %d (nil=%v), want the fast path at %d", rec.StateHeight, rec.State == nil, blocks)
	}
	// The last snapshot was cut when the certificate for height 8 landed, at
	// the journal's height then (8 or above): at most 2 records follow it.
	if rec.WALRecords > blocks%every {
		t.Fatalf("recovery applied %d WAL records, want at most %d on top of the snapshot", rec.WALRecords, blocks%every)
	}
	assertResumes(t, resumed, blocks, 3)
}
