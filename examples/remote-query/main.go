// Remote-query: the full decoupled deployment of Fig. 2 — the service
// provider answers queries over the network as serialized messages, and a
// superlight client verifies every response against enclave-certified roots
// without ever trusting the wire or the SP.
//
// Run with:
//
//	go run ./examples/remote-query
package main

import (
	"fmt"
	"os"

	"dcert"
)

func main() {
	logger := dcert.NewLogger(os.Stderr, dcert.LogInfo, dcert.LogF("node", "remote-query"))
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:  dcert.SmallBank,
		Contracts: 2,
		Accounts:  10,
		KeySpace:  20,
		Seed:      11,
	})
	if err != nil {
		logger.Fatal("deployment", dcert.LogF("err", err))
	}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) {
		return dcert.NewHistoricalIndex("history", "ct/")
	}); err != nil {
		logger.Fatal("add index", dcert.LogF("err", err))
	}
	client := dep.NewSuperlightClient()

	fmt.Println("building the chain with certified indexes...")
	for i := 0; i < 12; i++ {
		blk, blkCert, idxCerts, err := dep.MineAndCertifyHierarchical(15, []string{"history"})
		if err != nil {
			logger.Fatal("block failed", dcert.LogF("height", i), dcert.LogF("err", err))
		}
		if err := client.ValidateChain(&blk.Header, blkCert); err != nil {
			logger.Fatal("chain validation", dcert.LogF("err", err))
		}
		ix, err := dep.SP().Index("history")
		if err != nil {
			logger.Fatal("index", dcert.LogF("err", err))
		}
		root, err := ix.Root()
		if err != nil {
			logger.Fatal("root", dcert.LogF("err", err))
		}
		if err := client.ValidateIndex("history", &blk.Header, root, idxCerts[0]); err != nil {
			logger.Fatal("index certificate", dcert.LogF("err", err))
		}
	}

	// Serve the deployment on a loopback socket and dial it as a remote
	// client: every query is one request and one response on the wire's
	// query route.
	server, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		logger.Fatal("serve wire", dcert.LogF("err", err))
	}
	defer server.Close()
	wc, err := dcert.DialWire(server.Addr(), dcert.WireClientConfig{Name: "remote-query"})
	if err != nil {
		logger.Fatal("dial wire", dcert.LogF("err", err))
	}
	defer wc.Close()

	// 1. Remote historical query, verified against the certified root.
	root, _, err := client.IndexRoot("history")
	if err != nil {
		logger.Fatal("index root", dcert.LogF("err", err))
	}
	resp, err := dcert.RequestQuery(wc, dcert.NewRemoteHistoricalRequest("history", "ct/SB-0000/checking/cust-4", 0, 100))
	if err != nil {
		logger.Fatal("remote historical", dcert.LogF("err", err))
	}
	hres, err := dcert.ParseHistoricalResult(resp)
	if err != nil {
		logger.Fatal("historical result", dcert.LogF("err", err))
	}
	if err := dcert.VerifyHistorical(root, hres); err != nil {
		logger.Fatal("verification failed", dcert.LogF("err", err))
	}
	fmt.Printf("remote historical query: %d verified versions (%d B over the wire)\n",
		len(hres.Entries), len(resp.Body))

	// 2. Remote direct state read, verified against the certified header.
	hdr, _ := client.Latest()
	resp, err = dcert.RequestQuery(wc, dcert.NewRemoteStateRequest("ct/SB-0000/checking/cust-4"))
	if err != nil {
		logger.Fatal("remote state", dcert.LogF("err", err))
	}
	sres, err := dcert.ParseStateResult(resp)
	if err != nil {
		logger.Fatal("state result", dcert.LogF("err", err))
	}
	if err := dcert.VerifyState(hdr, sres); err != nil {
		logger.Fatal("state verification failed", dcert.LogF("err", err))
	}
	fmt.Printf("remote state read verified against certified header at height %d\n", hdr.Height)

	// 3. A remote error round-trips cleanly.
	if _, err := dcert.RequestQuery(wc, dcert.NewRemoteHistoricalRequest("no-such-index", "k", 0, 1)); err != nil {
		fmt.Printf("remote errors propagate: %v\n", err)
	}
}
