// Command dcert-node runs a complete simulated DCert network — miner,
// SGX-enabled certificate issuer, query service provider, and a superlight
// client — and streams the certification workflow of Fig. 2 to stdout:
// blocks are mined, certified in the enclave, broadcast, and validated by
// the superlight client at constant cost.
//
// Usage:
//
//	dcert-node [-blocks N] [-txs N] [-workload DN|CPU|IO|KV|SB] [-tee sgx|trustzone|multizone|sev] [-interval d]
//	           [-pipeline W] [-debug-addr host:port] [-linger d]
//	           [-data-dir path] [-fsync-interval d] [-listen host:port]
//
// With -listen the node becomes a multi-process server: after mining its
// blocks it keeps running, serving the wire transport protocol on the given
// address — live certificate/block topic streams, certificate catch-up, and
// the RPC routes (node info, latest certificate, raw blocks, verifiable
// queries) — until interrupted. Point dcert-query -connect (or any
// dcert.DialWire client) at the printed address from another OS process.
// Combined with -data-dir, kill -9 the server and rerun with the same
// directory: it recovers, mines on, and remote clients re-verify against the
// same trust anchors.
//
// With -debug-addr the node serves its instrumentation plane over HTTP while
// it runs: /metrics (Prometheus text), /debug/spans, /healthz, and
// /debug/pprof/. With -pipeline W certification runs through the W-worker
// pipelined engine, so /metrics carries live per-stage latency histograms.
//
// With -data-dir the node journals every block, certificate, and state write
// set through the crash-safe storage engine. Kill the process at any point
// and rerun with the same -data-dir: recovery truncates any torn log tail,
// resumes from the certified tip, and a fresh enclave continues the
// certificate recursion from the chain log's tip certificate without
// re-signing any certified height. -fsync-interval batches fsyncs (group commit); 0 syncs
// every append.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcert"
	"dcert/internal/enclave"
	"dcert/internal/network"
	"dcert/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dcert-node: %v\n", err)
		os.Exit(1)
	}
}

func parseWorkload(s string) (dcert.Workload, error) {
	for _, k := range workload.AllKinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q (want DN|CPU|IO|KV|SB)", s)
}

func run() error {
	blocks := flag.Int("blocks", 10, "number of blocks to mine and certify")
	txs := flag.Int("txs", 50, "transactions per block")
	workloadFlag := flag.String("workload", "KV", "Blockbench workload: DN, CPU, IO, KV, SB")
	interval := flag.Duration("interval", 0, "pause between blocks (simulated block interval)")
	teeFlag := flag.String("tee", "sgx", "TEE vendor profile: sgx, trustzone, multizone, sev")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/spans, /healthz, /debug/pprof on this address")
	pipeline := flag.Int("pipeline", 0, "certify through the pipelined engine with this many verify workers (0 = sequential)")
	linger := flag.Duration("linger", 0, "keep the debug server up this long after the run (for scraping)")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory only); rerun with the same directory to resume after a crash")
	fsyncInterval := flag.Duration("fsync-interval", 0, "batch log fsyncs at this interval (group commit); 0 = fsync every append")
	listen := flag.String("listen", "", "serve the wire transport on this address (host:port, :0 picks a port) and keep running until interrupted")
	flag.Parse()

	kind, err := parseWorkload(*workloadFlag)
	if err != nil {
		return err
	}
	vendor, err := enclave.ParseVendor(*teeFlag)
	if err != nil {
		return err
	}

	fmt.Printf("starting DCert network: workload=%s blocks=%d txs/block=%d tee=%s\n", kind, *blocks, *txs, vendor)
	cfg := dcert.Config{
		Workload:    kind,
		Contracts:   20,
		Accounts:    32,
		Difficulty:  8,
		EnclaveCost: enclave.CostModelFor(vendor),
		KeySpace:    1000,
	}
	if *dataDir != "" {
		cfg.Storage = &dcert.StorageConfig{Dir: *dataDir, FsyncInterval: *fsyncInterval}
	}
	dep, err := dcert.OpenDeployment(cfg)
	if err != nil {
		return err
	}
	defer dep.Close()
	if rec := dep.StorageRecovery(); rec != nil && len(rec.Blocks) > 0 {
		fmt.Printf("  recovered from %s: height=%d blocks=%d certs=%d torn=%v truncated=%dB dropped=%d in %v\n",
			*dataDir, rec.TipHeight(), len(rec.Blocks), len(rec.Certs), rec.Torn,
			rec.TruncatedBytes, rec.DroppedBlocks, rec.Elapsed.Round(time.Millisecond))
	} else if *dataDir != "" {
		fmt.Printf("  data directory:         %s (fresh, fsync-interval=%v)\n", *dataDir, *fsyncInterval)
	}
	fmt.Printf("  CI enclave measurement: %s\n", dep.Issuer().Measurement())
	fmt.Printf("  attestation report:     %d bytes (platform %s)\n",
		dep.Issuer().Report().EncodedSize(), dep.Issuer().Report().PlatformID)

	logger := dcert.NewLogger(os.Stderr, dcert.LogInfo, dcert.LogF("node", "dcert-node"))
	if *debugAddr != "" {
		dep.EnableObservability(logger)
		dbg, err := dep.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("  debug endpoint:         %s/metrics  /debug/spans  /healthz  /debug/pprof/\n", dbg.URL())
	}

	if *listen != "" {
		return runServer(dep, *listen, *blocks, *txs, *interval)
	}

	client := dep.NewSuperlightClient()
	if err := mineAndValidate(dep, client, *blocks, *txs, *pipeline, *interval); err != nil {
		return err
	}

	stats := dep.Issuer().Enclave().Stats()
	fmt.Printf("\nenclave: %d ecalls, %.1f MB copied in, exec=%v overhead=%v\n",
		stats.Ecalls, float64(stats.BytesIn)/(1<<20),
		stats.ExecTime.Round(time.Millisecond), stats.OverheadTime.Round(time.Millisecond))
	hdr, _ := client.Latest()
	fmt.Printf("superlight client final state: height=%d storage=%d bytes (constant)\n",
		hdr.Height, client.StorageSize())
	if *debugAddr != "" && *linger > 0 {
		fmt.Printf("debug server up for another %v...\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// runServer runs the node as a long-lived wire server: a certification
// plane with catch-up responders, the networked query service, and the TCP
// transport bridged onto the deployment's fabric. It mines the requested
// blocks (each broadcast as a live CertBundle on the certificate topic),
// then serves until SIGINT/SIGTERM.
func runServer(dep *dcert.Deployment, addr string, blocks, txs int, interval time.Duration) error {
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		return err
	}
	defer plane.Stop()
	qs := dep.ServeQueries()
	defer qs.Stop()
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: addr})
	if err != nil {
		return err
	}
	defer srv.Close()
	// The "serving on" line is the machine-readable readiness signal:
	// integration harnesses parse the bound address from it.
	fmt.Printf("wire: serving on %s\n", srv.Addr())

	for i := 1; i <= blocks; i++ {
		blk, err := plane.MineAndBroadcast(txs)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		fmt.Printf("block %4d  hash=%s  txs=%d  broadcast\n", blk.Header.Height, blk.Hash(), len(blk.Txs))
		if interval > 0 {
			time.Sleep(interval)
		}
	}
	fmt.Printf("wire: mining done at height %d; serving until interrupted\n", dep.Miner().Store().BestHeight())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := srv.Stats()
	fmt.Printf("wire: shutting down (conns=%d subs=%d sent=%d dropped=%d publishes=%d requests=%d)\n",
		st.ActiveConns, st.ActiveSubs, st.MessagesSent, st.SlowDrops, st.Publishes, st.Requests)
	return nil
}

// mineAndValidate mines the blocks through the deployment's mining routine —
// inline, or with workers > 0 pipelined, so that block i+1 is mined, journaled
// and speculatively executed while block i is still inside the enclave — and
// has the client validate the certificate bundles as they land on the
// certificate topic.
func mineAndValidate(dep *dcert.Deployment, client *dcert.SuperlightClient, blocks, txs, workers int, interval time.Duration) error {
	// One bundle per block; the fabric drops what a full queue cannot take.
	certs := dep.Net().Subscribe(dcert.TopicCerts, blocks)
	defer certs.Cancel()
	validated := make(chan error, 1)
	go func() { validated <- validateBundles(dep, client, certs, blocks) }()

	plane, err := dep.StartCertPlane(1)
	if err != nil {
		return err
	}
	defer plane.Stop()
	mine := plane.MineAndBroadcast
	if workers > 0 {
		if err := plane.StartPipelines(dcert.PipelineConfig{Workers: workers}); err != nil {
			return err
		}
		mine = plane.MineAndBroadcastPipelined
	}
	start := time.Now()
	for i := 1; i <= blocks && err == nil; i++ {
		if _, err = mine(txs); err != nil {
			err = fmt.Errorf("block %d: %w", i, err)
		} else if interval > 0 {
			time.Sleep(interval)
		}
	}
	if workers > 0 {
		if derr := plane.DrainPipelines(); err == nil {
			err = derr
		}
	}
	if err == nil {
		err = <-validated
	}
	if err == nil && workers > 0 {
		fmt.Printf("\npipeline: %d blocks, wall=%v\n", blocks, time.Since(start).Round(time.Millisecond))
	}
	return err
}

// validateBundles has the client validate the next n certificate bundles and
// prints one line per block. It returns early when the subscription ends.
func validateBundles(dep *dcert.Deployment, client *dcert.SuperlightClient, certs *network.Subscription, n int) error {
	for i := 0; i < n; i++ {
		m, ok := <-certs.C
		if !ok {
			return fmt.Errorf("certificate stream ended after %d of %d blocks", i, n)
		}
		bundle, ok := m.Payload.(*dcert.CertBundle)
		if !ok {
			return fmt.Errorf("unexpected %T on the certificate topic", m.Payload)
		}
		h := bundle.Header.Height
		blk, err := dep.Miner().Store().AtHeight(h)
		if err != nil {
			return fmt.Errorf("block %d: %w", h, err)
		}
		start := time.Now()
		if err := client.ValidateChain(bundle.Header, bundle.Cert); err != nil {
			return fmt.Errorf("client validation %d: %w", h, err)
		}
		validate := time.Since(start)
		fmt.Printf("block %4d  hash=%s  txs=%d  cert=%dB  client-validate=%v  client-storage=%dB\n",
			h, blk.Hash(), len(blk.Txs), bundle.Cert.EncodedSize(),
			validate.Round(time.Microsecond), client.StorageSize())
	}
	return nil
}
