// Package dcert_test hosts the testing.B benchmarks that mirror the paper's
// evaluation, one per table/figure. They are per-operation microbenchmarks
// (ns/op of the operation each figure measures); the full experiment sweeps
// with the paper's parameter grids live in internal/bench and are driven by
// cmd/dcert-bench.
//
// Run with:
//
//	go test -bench=. -benchmem
package dcert_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dcert"
	"dcert/internal/chain"
	"dcert/internal/statedb"
	"dcert/internal/workload"
)

// benchDeployment builds a small deployment for benches.
func benchDeployment(b *testing.B, w dcert.Workload, withEnclaveCost bool) *dcert.Deployment {
	b.Helper()
	cfg := dcert.Config{
		Workload:  w,
		Contracts: 20,
		Accounts:  32,
		KeySpace:  500,
		Seed:      int64(w),
	}
	if withEnclaveCost {
		cfg.EnclaveCost = dcert.DefaultEnclaveCostModel()
	}
	dep, err := dcert.NewDeployment(cfg)
	if err != nil {
		b.Fatalf("NewDeployment: %v", err)
	}
	return dep
}

// BenchmarkTable1Setup measures deployment assembly under the Table 1
// defaults (registry, genesis, enclave init, attestation round trip).
func BenchmarkTable1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dep, err := dcert.NewDeployment(dcert.Config{Workload: dcert.KVStore, Contracts: 20, Accounts: 8})
		if err != nil {
			b.Fatalf("NewDeployment: %v", err)
		}
		_ = dep
	}
}

// BenchmarkFig7Bootstrap measures the two clients' bootstrap operations: the
// superlight client's constant-cost certificate validation (cold = full
// attestation path, warm = cached report) vs the light client's linear
// header sync at two chain lengths.
func BenchmarkFig7Bootstrap(b *testing.B) {
	dep := benchDeployment(b, dcert.DoNothing, false)
	var lastHdr dcert.Header
	var lastCert *dcert.Certificate
	for i := 0; i < 200; i++ {
		blk, cert, err := dep.MineAndCertify(1)
		if err != nil {
			b.Fatalf("MineAndCertify: %v", err)
		}
		lastHdr, lastCert = blk.Header, cert
	}
	headers := dep.Miner().Store().Headers()

	b.Run("superlight-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			client := dep.NewSuperlightClient()
			if err := client.ValidateChain(&lastHdr, lastCert); err != nil {
				b.Fatalf("ValidateChain: %v", err)
			}
		}
	})
	b.Run("superlight-warm", func(b *testing.B) {
		// Warm path: the attestation report is already checked (the paper's
		// once-per-enclave rule, §4.3), so steady-state validation is the
		// certificate signature over the header digest.
		digest := dcert.BlockDigest(&lastHdr)
		for i := 0; i < b.N; i++ {
			if err := lastCert.VerifySignatureOnly(digest); err != nil {
				b.Fatalf("VerifySignatureOnly: %v", err)
			}
		}
	})
	for _, n := range []int{50, 200} {
		n := n
		b.Run(fmt.Sprintf("light-sync-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lc := dep.NewLightClient()
				if err := lc.Sync(headers[:n+1]); err != nil {
					b.Fatalf("Sync: %v", err)
				}
			}
		})
	}
}

// BenchmarkFig8CertConstruction measures full block-certificate construction
// (Alg. 1: outside pre-processing + in-enclave verification and signing) per
// workload at a fixed block size, with the calibrated enclave cost model.
func BenchmarkFig8CertConstruction(b *testing.B) {
	for _, kind := range workload.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			dep := benchDeployment(b, kind, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				txs, err := dep.GenerateBlockTxs(100)
				if err != nil {
					b.Fatalf("GenerateBlockTxs: %v", err)
				}
				blk, err := dep.Miner().Propose(txs)
				if err != nil {
					b.Fatalf("Propose: %v", err)
				}
				b.StartTimer()
				if _, _, err := dep.Issuer().ProcessBlock(blk); err != nil {
					b.Fatalf("ProcessBlock: %v", err)
				}
			}
		})
	}
}

// BenchmarkFig9BlockSize measures certificate construction at increasing
// block sizes for the two macro workloads.
func BenchmarkFig9BlockSize(b *testing.B) {
	for _, kind := range []dcert.Workload{dcert.KVStore, dcert.SmallBank} {
		for _, size := range []int{50, 100, 200} {
			kind, size := kind, size
			b.Run(fmt.Sprintf("%s-%d", kind, size), func(b *testing.B) {
				dep := benchDeployment(b, kind, true)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					txs, err := dep.GenerateBlockTxs(size)
					if err != nil {
						b.Fatalf("GenerateBlockTxs: %v", err)
					}
					blk, err := dep.Miner().Propose(txs)
					if err != nil {
						b.Fatalf("Propose: %v", err)
					}
					b.StartTimer()
					if _, _, err := dep.Issuer().ProcessBlock(blk); err != nil {
						b.Fatalf("ProcessBlock: %v", err)
					}
				}
			})
		}
	}
}

// fig10Deployment builds a deployment with n certified historical indexes.
func fig10Deployment(b *testing.B, n int) (*dcert.Deployment, []string) {
	b.Helper()
	dep := benchDeployment(b, dcert.KVStore, true)
	names := make([]string, n)
	for i := range names {
		name := fmt.Sprintf("hist-%d", i)
		names[i] = name
		if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
			return dcert.NewHistoricalIndex(name, "ct/")
		}); err != nil {
			b.Fatalf("AddIndex: %v", err)
		}
	}
	return dep, names
}

// BenchmarkFig10MultiIndex measures augmented vs hierarchical certification
// per block at 1 and 8 authenticated indexes.
func BenchmarkFig10MultiIndex(b *testing.B) {
	for _, n := range []int{1, 8} {
		for _, scheme := range []string{"augmented", "hierarchical"} {
			n, scheme := n, scheme
			b.Run(fmt.Sprintf("%s-%d", scheme, n), func(b *testing.B) {
				dep, names := fig10Deployment(b, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					txs, err := dep.GenerateBlockTxs(60)
					if err != nil {
						b.Fatalf("GenerateBlockTxs: %v", err)
					}
					blk, err := dep.Miner().Propose(txs)
					if err != nil {
						b.Fatalf("Propose: %v", err)
					}
					jobs, err := dep.PrepareIndexJobs(blk, names)
					if err != nil {
						b.Fatalf("PrepareIndexJobs: %v", err)
					}
					b.StartTimer()
					switch scheme {
					case "augmented":
						_, _, err = dep.Issuer().ProcessBlockAugmented(blk, jobs)
					case "hierarchical":
						_, _, _, err = dep.Issuer().ProcessBlockHierarchical(blk, jobs)
					}
					if err != nil {
						b.Fatalf("certify: %v", err)
					}
					b.StopTimer()
					if err := dep.SP().ProcessBlock(blk); err != nil {
						b.Fatalf("sp: %v", err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkFig11Query measures one verified historical query (SP query +
// client verification) on the DCert two-level index at two window sizes.
func BenchmarkFig11Query(b *testing.B) {
	dep := benchDeployment(b, dcert.KVStore, false)
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewHistoricalIndex("hist", "ct/")
	}); err != nil {
		b.Fatalf("AddIndex: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := dep.MineAndCertify(20); err != nil {
			b.Fatalf("MineAndCertify: %v", err)
		}
	}
	ix, err := dep.SP().Index("hist")
	if err != nil {
		b.Fatalf("Index: %v", err)
	}
	root, err := ix.Root()
	if err != nil {
		b.Fatalf("Root: %v", err)
	}
	key := fmt.Sprintf("ct/%s/kv/user-key-7", workload.ContractName(workload.KVStore, 0))

	for _, window := range []uint64{25, 150} {
		window := window
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dep.SP().HistoricalQuery("hist", key, 200-window, 200)
				if err != nil {
					b.Fatalf("HistoricalQuery: %v", err)
				}
				if err := dcert.VerifyHistorical(root, res); err != nil {
					b.Fatalf("VerifyHistorical: %v", err)
				}
			}
		})
	}
}

// BenchmarkHeadlineStorage reports the certificate and client storage sizes
// as allocations-free size computations (the 2.97 KB constant).
func BenchmarkHeadlineStorage(b *testing.B) {
	dep := benchDeployment(b, dcert.KVStore, false)
	blk, cert, err := dep.MineAndCertify(10)
	if err != nil {
		b.Fatalf("MineAndCertify: %v", err)
	}
	client := dep.NewSuperlightClient()
	if err := client.ValidateChain(&blk.Header, cert); err != nil {
		b.Fatalf("ValidateChain: %v", err)
	}
	b.ReportMetric(float64(client.StorageSize()), "storage-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if client.StorageSize() == 0 {
			b.Fatal("zero storage")
		}
	}
}

// BenchmarkMinePath sizes the serial mining path of the end-to-end
// benchmark's cert_stream workload without the two-process harness: the
// benchmark server's configuration (benchmarks/e2e/sut.go openServer: durable
// storage with a 50 ms fsync interval, SGX cost model, one pipelined issuer
// with 2 workers, a 2-replica fleet, 25-tx KVStore blocks) in one process.
// One iteration mines one block. It reports where the serial call spends its
// time — gen, propose, journal, submit, in ms per block, read from the
// dcert_mine_step_seconds histograms the mining routine itself fills, and
// serve, the SP's and fleet's adoption once the certificate lands — the wall
// time until every block is certified and served (certified-ms/block), and
// what repeats where the timings do not: the state tries the deployment
// builds, signature verifications per transaction over the whole path
// (pipeline and enclave included; the benchmark fails unless it is exactly
// 3), and the live heap each block leaves behind.
//
//	make bench-mine-path                      # 400 blocks
//	make bench-mine-path MINE_PATH_BLOCKS=1x  # CI smoke
func BenchmarkMinePath(b *testing.B) {
	const txsPerBlock = 25
	dbsBefore := statedb.Instances()
	dep, err := dcert.OpenDeployment(dcert.Config{
		Workload:    dcert.KVStore,
		Contracts:   20,
		Accounts:    16,
		EnclaveCost: dcert.DefaultEnclaveCostModel(),
		Seed:        1,
		KeySpace:    1000,
		Storage:     &dcert.StorageConfig{Dir: b.TempDir(), FsyncInterval: 50 * time.Millisecond},
	})
	if err != nil {
		b.Fatalf("OpenDeployment: %v", err)
	}
	defer dep.Close()
	reg, _ := dep.EnableObservability(nil)
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		b.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	if _, err := dep.StartFleet(2); err != nil {
		b.Fatalf("StartFleet: %v", err)
	}
	if err := plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
		b.Fatalf("StartPipelines: %v", err)
	}
	// The benchmark's set-up chain: 4 blocks before anything is measured,
	// certified before the counters are read, so that none of their pipeline
	// or enclave work lands in the measured window.
	var setUpTip *dcert.Block
	for i := 0; i < 4; i++ {
		if setUpTip, err = plane.MineAndBroadcastPipelined(txsPerBlock); err != nil {
			b.Fatalf("set-up block: %v", err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if seg := dep.Issuer().LatestSegment(); seg != nil && seg.End() >= setUpTip.Header.Height {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("set-up blocks never certified")
		}
	}

	steps := []string{"gen", "propose", "journal", "submit", "serve"}
	stepSeconds := func(step string) float64 {
		return reg.Histogram("dcert_mine_step_seconds", "", nil, dcert.MetricLabel("step", step)).Sum()
	}
	setUp := map[string]float64{}
	for _, step := range steps {
		setUp[step] = stepSeconds(step)
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	heapBefore := mem.HeapAlloc
	sigsBefore := chain.SigVerifications()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := plane.MineAndBroadcastPipelined(txsPerBlock); err != nil {
			b.Fatalf("block %d: %v", i, err)
		}
	}
	b.StopTimer()
	if err := plane.DrainPipelines(); err != nil {
		b.Fatalf("DrainPipelines: %v", err)
	}
	certified := time.Since(start)

	blocks := float64(b.N)
	for _, step := range steps {
		b.ReportMetric((stepSeconds(step)-setUp[step])*1e3/blocks, step+"-ms/block")
	}
	// ns/op times the serial routine alone; the blocks are certified and
	// served when DrainPipelines returns.
	b.ReportMetric(certified.Seconds()*1e3/blocks, "certified-ms/block")
	b.ReportMetric(float64(statedb.Instances()-dbsBefore), "state-dbs")
	// Per transaction: the miner, the CI's host and the enclave verify its
	// signature once each; the SP adopts the block under its certificate
	// and the fleet adopts the SP's write set.
	sigs := chain.SigVerifications() - sigsBefore
	if want := uint64(3 * b.N * txsPerBlock); sigs != want {
		b.Fatalf("%d signature verifications for %d txs, want %d (3 passes)", sigs, b.N*txsPerBlock, want)
	}
	b.ReportMetric(float64(sigs)/(blocks*txsPerBlock), "sigverifies/tx")
	runtime.GC()
	runtime.ReadMemStats(&mem)
	b.ReportMetric((float64(mem.HeapAlloc)-float64(heapBefore))/1024/blocks, "live-KiB/block")
}

// BenchmarkTxQueryReadBack prices a proven transaction read on a durable
// deployment two ways: for a block inside the body window (served from
// memory) and for one below it, whose body the SP's store reads back from
// the chain log — CRC, decode, header hash and tx-root checks — on every
// call, with no cache. The blocks carry 25 transactions, as in the
// cert_stream workload.
//
//	go test -run='^$' -bench='^BenchmarkTxQueryReadBack$' -benchmem .
func BenchmarkTxQueryReadBack(b *testing.B) {
	const txsPerBlock = 25
	dep, err := dcert.OpenDeployment(dcert.Config{
		Workload:  dcert.KVStore,
		Contracts: 20,
		Accounts:  16,
		Seed:      1,
		KeySpace:  1000,
		Storage:   &dcert.StorageConfig{Dir: b.TempDir()},
	})
	if err != nil {
		b.Fatalf("OpenDeployment: %v", err)
	}
	defer dep.Close()
	for i := 0; i < chain.BodyWindow+16; i++ {
		if _, _, err := dep.MineAndCertify(txsPerBlock); err != nil {
			b.Fatalf("block %d: %v", i+1, err)
		}
	}
	store := dep.SP().Node().Store()
	for _, c := range []struct {
		name   string
		height uint64
	}{
		{"in-window", store.BestHeight()},
		{"read-back", 1},
	} {
		h, err := store.HashAt(c.height)
		if err != nil {
			b.Fatalf("HashAt(%d): %v", c.height, err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dep.SP().TxQuery(h, i%txsPerBlock); err != nil {
					b.Fatalf("TxQuery: %v", err)
				}
			}
		})
	}
}
