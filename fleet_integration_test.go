package dcert_test

import (
	"fmt"
	"testing"

	"dcert"
	"dcert/internal/query"
	"dcert/internal/workload"
)

// probeWrittenKey finds a state key the KV workload has written.
func probeWrittenKey(t *testing.T, dep *dcert.Deployment) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		probe := fmt.Sprintf("ct/%s/kv/user-key-%d", workload.ContractName(workload.KVStore, 0), i)
		res, err := dep.SP().StateQuery(probe)
		if err != nil {
			t.Fatalf("StateQuery: %v", err)
		}
		if res.Value != nil {
			return probe
		}
	}
	t.Skip("no written key found")
	return ""
}

// TestFleetDeploymentEndToEnd drives the full sharded serving plane: a
// deployment with an index mines certified blocks, starts a 4-replica
// fleet mid-chain (exercising replica catch-up), and serves verified
// queries over the TCP wire RPC.
func TestFleetDeploymentEndToEnd(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       11,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewHistoricalIndex("hist", "ct/")
	}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	client := dep.NewSuperlightClient()

	// Mine a few blocks BEFORE the fleet exists: replicas must catch up.
	var lastBlk *dcert.Block
	var lastCert *dcert.Certificate
	for i := 0; i < 3; i++ {
		blk, cert, err := dep.MineAndCertify(10)
		if err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
		lastBlk, lastCert = blk, cert
	}

	f, err := dep.StartFleet(4)
	if err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if dep.Fleet() != f || f.Size() != 4 {
		t.Fatalf("fleet not registered: size %d", f.Size())
	}
	if _, err := dep.StartFleet(2); err == nil {
		t.Fatal("second StartFleet must fail")
	}

	// Mine more AFTER: every replica must follow the chain.
	for i := 0; i < 3; i++ {
		blk, cert, err := dep.MineAndCertify(10)
		if err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
		lastBlk, lastCert = blk, cert
	}
	if err := client.ValidateChain(&lastBlk.Header, lastCert); err != nil {
		t.Fatalf("ValidateChain: %v", err)
	}
	key := probeWrittenKey(t, dep)

	// The TCP wire RPC path.
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "fleet-client"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()

	resp, err := dcert.RequestQuery(wc, query.NewStateRequest(key))
	if err != nil {
		t.Fatalf("RequestQuery: %v", err)
	}
	wsr, err := query.UnmarshalStateResult(resp.Body)
	if err != nil {
		t.Fatalf("UnmarshalStateResult: %v", err)
	}
	if err := dcert.VerifyState(&lastBlk.Header, wsr); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}

	// Batched multi-key read over the wire: one merged multiproof.
	bresp, err := dcert.RequestQuery(wc, query.NewBatchStateRequest([]string{key, "never-written"}))
	if err != nil {
		t.Fatalf("RequestQuery(batch): %v", err)
	}
	br, err := query.UnmarshalBatchStateResult(bresp.Body)
	if err != nil {
		t.Fatalf("UnmarshalBatchStateResult: %v", err)
	}
	if err := dcert.VerifyBatchState(&lastBlk.Header, br); err != nil {
		t.Fatalf("VerifyBatchState: %v", err)
	}

	// The fleet actually answered: per-replica counters sum to the traffic.
	var served uint64
	for _, name := range f.Router().Members() {
		rep, err := f.Replica(name)
		if err != nil {
			t.Fatalf("Replica: %v", err)
		}
		h, m, c, _ := rep.Cache().Stats()
		served += h + m + c
	}
	if served == 0 {
		t.Fatal("no replica served any request — queries bypassed the fleet")
	}
}

// TestStartFleetReplaysChainOnce pins the serving plane's ingest cost at the
// deployment level: StartFleet(8) mid-chain validates the chain once, not
// once per shard, and every block mined afterwards is validated by the
// primary SP alone — the fleet's snapshot adopts that validation's write
// set (one apply per index) without a validation of its own.
func TestStartFleetReplaysChainOnce(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  4,
		Accounts:   8,
		Difficulty: 2,
		Seed:       12,
		KeySpace:   30,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	reg, _ := dep.EnableObservability(nil)
	names := []string{"hist", "kw"}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewHistoricalIndex("hist", "ct/") }); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewKeywordIndex("kw") }); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	mine := func(n int) *dcert.Block {
		var blk *dcert.Block
		for i := 0; i < n; i++ {
			if blk, _, _, err = dep.MineAndCertifyHierarchical(8, names); err != nil {
				t.Fatalf("MineAndCertifyHierarchical: %v", err)
			}
		}
		return blk
	}
	fleetSP := dcert.MetricLabel("sp", "fleet")
	validated := func() uint64 { return reg.Counter("dcert_sp_blocks_validated_total", "", fleetSP).Value() }
	applied := func() uint64 { return reg.Counter("dcert_sp_index_applies_total", "", fleetSP).Value() }
	height := func() int64 { return reg.Gauge("dcert_fleet_snapshot_height", "").Value() }

	mine(4)
	f, err := dep.StartFleet(8)
	if err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if validated() != 4 || applied() != 8 || height() != 4 {
		t.Fatalf("catch-up of 4 blocks, 2 indexes, 8 shards: validated %d applied %d height %d; want 4 8 4",
			validated(), applied(), height())
	}
	tip := mine(3)
	if validated() != 4 || applied() != 14 || height() != 7 {
		t.Fatalf("after 3 fed blocks: validated %d applied %d height %d; want 4 14 7", validated(), applied(), height())
	}
	for _, name := range f.Router().Members() {
		rep, err := f.Replica(name)
		if err != nil {
			t.Fatalf("Replica: %v", err)
		}
		if *rep.Tip() != tip.Header {
			t.Fatalf("shard %s at height %d, want %d", name, rep.Tip().Height, tip.Header.Height)
		}
	}
}

// assertFleetAtSP checks that the SP's state commits to its tip's state root
// and that every fleet shard stands on that tip, and returns it.
func assertFleetAtSP(t *testing.T, dep *dcert.Deployment, f *dcert.QueryFleet) *dcert.Header {
	t.Helper()
	tip := dep.SP().Node().Tip().Header
	root, err := dep.SP().Node().State().Root()
	if err != nil {
		t.Fatalf("SP state root: %v", err)
	}
	if root != tip.StateRoot {
		t.Fatalf("SP state root %s, its tip's %s", root, tip.StateRoot)
	}
	for _, name := range f.Router().Members() {
		rep, err := f.Replica(name)
		if err != nil {
			t.Fatalf("Replica: %v", err)
		}
		if got := rep.Tip(); got.Hash() != tip.Hash() {
			t.Fatalf("shard %s at height %d (state root %s), SP at %d (%s)", name, got.Height, got.StateRoot, tip.Height, tip.StateRoot)
		}
	}
	return &tip
}

// TestStartFleetWhilePipelined: a fleet started while pipelined blocks are
// still uncertified catches up to the SP's tip, not the miner's, and then
// follows the SP block by block as the certificates land.
func TestStartFleetWhilePipelined(t *testing.T) {
	dep, err := dcert.NewDeployment(dcert.Config{Difficulty: 2, Seed: 43, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	if err := plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}
	var last *dcert.Block
	for i := 0; i < 3; i++ {
		if last, err = plane.MineAndBroadcastPipelined(8); err != nil {
			t.Fatalf("MineAndBroadcastPipelined: %v", err)
		}
	}
	f, err := dep.StartFleet(2)
	if err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if err := plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}
	if tip := assertFleetAtSP(t, dep, f); tip.Hash() != last.Hash() {
		t.Fatalf("SP at height %d after the drain, want the miner's %d", tip.Height, last.Header.Height)
	}
}

// TestSPNeverPassesCertifiedTip: under pipelined mining the SP adopts a
// block only once a certificate covering it has landed. A sampler reads the
// SP's tip, then the issuer's certified tip, throughout a pipelined run:
// the first never exceeds the second, and after DrainPipelines the SP, the
// fleet and the certified tip all stand on the miner's tip, with every block
// timed once as served and no serving lag left.
func TestSPNeverPassesCertifiedTip(t *testing.T) {
	const blocks = 12
	dep, err := dcert.NewDeployment(dcert.Config{Difficulty: 2, Seed: 44, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	reg, _ := dep.EnableObservability(nil)
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	f, err := dep.StartFleet(2)
	if err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if err := plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}
	certified := func() uint64 {
		if seg := dep.Issuer().LatestSegment(); seg != nil {
			return seg.End()
		}
		return 0
	}
	stop, violation := make(chan struct{}), make(chan string, 1)
	var samples int
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sp := dep.SP().Node().Tip().Header.Height
			if c := certified(); sp > c {
				violation <- fmt.Sprintf("SP at height %d, certified tip %d", sp, c)
				return
			}
			samples++
		}
	}()
	for i := 0; i < blocks; i++ {
		if _, err := plane.MineAndBroadcastPipelined(8); err != nil {
			t.Fatalf("MineAndBroadcastPipelined: %v", err)
		}
	}
	if err := plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}
	close(stop)
	<-sampled
	select {
	case v := <-violation:
		t.Fatal(v)
	default:
	}
	if samples == 0 {
		t.Fatal("the sampler never read the tips")
	}
	tip := assertFleetAtSP(t, dep, f)
	if tip.Height != blocks || certified() != blocks {
		t.Fatalf("after the drain: SP at %d, certified tip %d, want both at %d", tip.Height, certified(), blocks)
	}
	if got := reg.Histogram("dcert_mine_step_seconds", "", nil, dcert.MetricLabel("step", "serve")).Count(); got != blocks {
		t.Fatalf("serve step timed %d times, want once per block (%d)", got, blocks)
	}
	if lag := reg.Gauge("dcert_serving_lag_blocks", "").Value(); lag != 0 {
		t.Fatalf("serving lag %d blocks after the drain, want 0", lag)
	}
}
