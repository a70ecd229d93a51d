// Command dcert-query demonstrates DCert's verifiable queries end to end:
// it builds a chain with hierarchically certified authenticated indexes,
// then answers historical and keyword queries whose results a superlight
// client verifies against enclave-certified index roots.
//
// Usage:
//
//	dcert-query [-blocks N] [-txs N] [-window N] [-keywords w1,w2] [-debug-addr host:port]
//	dcert-query -connect host:port [-state-key key]
//
// With -debug-addr the instrumentation plane (Ecall counters split block vs
// index, certification latency histograms, /healthz, pprof) is served over
// HTTP while the program runs.
//
// With -connect the program becomes a remote superlight client: it dials a
// dcert-node -listen server over the wire transport, fetches the node's
// trust anchors (trust-on-first-use for this demo — production clients pin
// them out of band), validates the latest certificate at constant cost,
// and runs a verifiable state query over the socket, checking the Merkle
// proof against the certified state root. -state-key overrides the queried
// key; by default the key of the tip block's last KVStore write is used, so
// the presence proof is exercised against live data.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dcert"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dcert-query: %v\n", err)
		os.Exit(1)
	}
}

// runRemote is the multi-process path: a superlight client over a real
// socket. Everything it trusts is verified — the certificate chain against
// the attested enclave key, and the query result against the certified
// state root — so the node across the wire could lie about anything and be
// caught.
func runRemote(addr, stateKey string) error {
	wc, err := dcert.DialWire(addr, dcert.WireClientConfig{Name: "dcert-query"})
	if err != nil {
		return err
	}
	defer wc.Close()

	client, err := dcert.NewRemoteSuperlightClient(wc)
	if err != nil {
		return err
	}
	bundle, err := dcert.RequestLatestBundle(wc)
	if err != nil {
		return err
	}
	if bundle == nil {
		return fmt.Errorf("node at %s has not certified any block yet", addr)
	}
	start := time.Now()
	if err := client.ValidateChain(bundle.Header, bundle.Cert); err != nil {
		return fmt.Errorf("certificate validation FAILED: %w", err)
	}
	fmt.Printf("connected to %s\n", addr)
	fmt.Printf("certified tip height %d VERIFIED in %v (client storage %d bytes)\n",
		bundle.Header.Height, time.Since(start).Round(time.Microsecond), client.StorageSize())

	// Default the queried key to the tip block's last KVStore write, so the
	// proof demonstrates presence against live data.
	if stateKey == "" {
		tip, err := dcert.RequestTipBlock(wc)
		if err != nil {
			return err
		}
		for i := len(tip.Txs) - 1; i >= 0; i-- {
			if tx := tip.Txs[i]; tx.Method == "set" && len(tx.Args) > 0 {
				stateKey = "ct/" + tx.Contract + "/kv/" + string(tx.Args[0])
				break
			}
		}
		if stateKey == "" {
			return fmt.Errorf("tip block has no KVStore write; pass -state-key")
		}
	}

	// One request, one response on the wire's query route.
	hdr, _ := client.Latest()
	start = time.Now()
	resp, err := dcert.RequestQuery(wc, dcert.NewRemoteStateRequest(stateKey))
	if err != nil {
		return err
	}
	res, err := dcert.ParseStateResult(resp)
	if err != nil {
		return err
	}
	if err := dcert.VerifyState(hdr, res); err != nil {
		return fmt.Errorf("state verification FAILED: %w", err)
	}
	presence := "present"
	if res.Value == nil {
		presence = "proven absent"
	}
	fmt.Printf("state query %q (RPC path): %s, value %x, proof %d bytes, VERIFIED in %v\n",
		stateKey, presence, res.Value, res.EncodedSize(), time.Since(start).Round(time.Microsecond))
	return nil
}

func run() error {
	blocks := flag.Int("blocks", 20, "number of blocks to build")
	txs := flag.Int("txs", 30, "transactions per block")
	window := flag.Int("window", 10, "historical query window in blocks")
	keywords := flag.String("keywords", "deposit_check", "comma-separated conjunctive keywords")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/spans, /healthz, /debug/pprof on this address")
	connect := flag.String("connect", "", "act as a remote client of a dcert-node -listen server at this address")
	stateKey := flag.String("state-key", "", "state key to query remotely (default: the tip block's last KVStore write)")
	flag.Parse()

	if *connect != "" {
		return runRemote(*connect, *stateKey)
	}

	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.SmallBank,
		Contracts:  4,
		Accounts:   16,
		Difficulty: 4,
		KeySpace:   50,
	})
	if err != nil {
		return err
	}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewHistoricalIndex("hist", "ct/")
	}); err != nil {
		return err
	}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewKeywordIndex("kw")
	}); err != nil {
		return err
	}
	if *debugAddr != "" {
		dep.EnableObservability(dcert.NewLogger(os.Stderr, dcert.LogInfo, dcert.LogF("node", "dcert-query")))
		dbg, err := dep.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint: %s/metrics\n", dbg.URL())
	}
	client := dep.NewSuperlightClient()
	names := []string{"hist", "kw"}

	fmt.Printf("building %d blocks with hierarchical index certification...\n", *blocks)
	for i := 0; i < *blocks; i++ {
		blk, blkCert, idxCerts, err := dep.MineAndCertifyHierarchical(*txs, names)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		if err := client.ValidateChain(&blk.Header, blkCert); err != nil {
			return err
		}
		for j, name := range names {
			ix, err := dep.SP().Index(name)
			if err != nil {
				return err
			}
			root, err := ix.Root()
			if err != nil {
				return err
			}
			if err := client.ValidateIndex(name, &blk.Header, root, idxCerts[j]); err != nil {
				return fmt.Errorf("index cert %s: %w", name, err)
			}
		}
	}
	tip, _ := client.Latest()
	fmt.Printf("chain height %d; client tracks 2 certified index roots\n\n", tip.Height)

	// Historical query: pick a SmallBank checking account that exists.
	histRoot, _, err := client.IndexRoot("hist")
	if err != nil {
		return err
	}
	key := "ct/SB-0000/checking/cust-1"
	lo := uint64(0)
	if uint64(*window) < tip.Height {
		lo = tip.Height - uint64(*window)
	}
	start := time.Now()
	hres, err := dep.SP().HistoricalQuery("hist", key, lo, tip.Height)
	if err != nil {
		return err
	}
	if err := dcert.VerifyHistorical(histRoot, hres); err != nil {
		return fmt.Errorf("historical verification FAILED: %w", err)
	}
	fmt.Printf("historical query %q in blocks [%d, %d]:\n", key, lo, tip.Height)
	fmt.Printf("  %d verified versions, proof %d bytes, %v total\n",
		len(hres.Entries), hres.Proof.EncodedSize(), time.Since(start).Round(time.Microsecond))
	for _, e := range hres.Entries {
		fmt.Printf("    block %4d: value %x\n", e.Version, e.Value)
	}

	// Conjunctive keyword query.
	kwRoot, _, err := client.IndexRoot("kw")
	if err != nil {
		return err
	}
	conj := strings.Split(*keywords, ",")
	start = time.Now()
	kres, err := dep.SP().KeywordQuery("kw", conj)
	if err != nil {
		return err
	}
	if err := dcert.VerifyKeyword(kwRoot, kres); err != nil {
		return fmt.Errorf("keyword verification FAILED: %w", err)
	}
	fmt.Printf("\nkeyword query %v:\n", conj)
	fmt.Printf("  %d verified matching txs, proof %d bytes, %v total\n",
		len(kres.Matches), kres.ProofSize(), time.Since(start).Round(time.Microsecond))
	for i, m := range kres.Matches {
		if i >= 5 {
			fmt.Printf("    ... and %d more\n", len(kres.Matches)-5)
			break
		}
		fmt.Printf("    block %4d tx %s\n", m.Version>>20, m.TxHash)
	}
	return nil
}
