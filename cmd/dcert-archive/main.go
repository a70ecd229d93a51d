// Command dcert-archive demonstrates cold-storage operation: it builds a
// certified chain into a durable data directory, closes it, reopens the
// directory's chain log, restores the blocks into a fresh full node
// (re-validating every block), and has a superlight client bootstrap from
// the log's tip certificate alone.
//
// Usage:
//
//	dcert-archive [-blocks N] [-txs N] [-out dir]
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"dcert"
	"dcert/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dcert-archive: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	blocks := flag.Int("blocks", 8, "number of blocks to build and archive")
	txs := flag.Int("txs", 20, "transactions per block")
	out := flag.String("out", "", "data directory; must not hold a chain yet (default: fresh temp directory)")
	flag.Parse()

	dir := *out
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "dcert-archive-"); err != nil {
			return err
		}
	}

	// Build and certify a chain; every block and certificate is journaled
	// to the data directory as it is mined.
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:  dcert.KVStore,
		Contracts: 10,
		Accounts:  16,
		KeySpace:  200,
		Storage:   &dcert.StorageConfig{Dir: dir},
	})
	if err != nil {
		return err
	}
	fmt.Printf("building %d certified blocks...\n", *blocks)
	for i := 0; i < *blocks; i++ {
		if _, _, err := dep.MineAndCertify(*txs); err != nil {
			dep.Close()
			return fmt.Errorf("block %d: %w", i, err)
		}
	}
	if err := dep.Close(); err != nil {
		return err
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	fmt.Printf("archived chain to %s (%d bytes)\n", dir, size)

	// Reopen the chain log cold.
	engine, err := storage.OpenEngine(dir, storage.Options{})
	if err != nil {
		return err
	}
	defer engine.Close()
	rec := engine.Recovery()
	fmt.Printf("loaded %d blocks and %d certificates\n", len(rec.Blocks), len(rec.Certs))

	// Restore into a brand-new full node: every block is re-validated.
	restored, err := dep.AddIssuer() // fresh node+enclave on the same chain params
	if err != nil {
		return err
	}
	n := restored.Node()
	if len(rec.Blocks) == 0 || rec.Blocks[0].Hash() != n.Store().Genesis() {
		return fmt.Errorf("data directory genesis does not match the deployment's")
	}
	for _, blk := range rec.Blocks[1:] {
		if err := n.ProcessBlock(blk); err != nil {
			return fmt.Errorf("re-validate height %d: %w", blk.Header.Height, err)
		}
	}
	fmt.Printf("restored node re-validated %d blocks; tip height %d\n",
		len(rec.Blocks)-1, n.Tip().Header.Height)

	// A superlight client bootstraps from the log's tip certificate.
	tip := rec.Blocks[len(rec.Blocks)-1]
	cert, ok := rec.Certs[tip.Hash()]
	if !ok {
		return fmt.Errorf("tip certificate missing from the chain log")
	}
	client := dep.NewSuperlightClient()
	if err := client.ValidateChain(&tip.Header, cert); err != nil {
		return fmt.Errorf("client bootstrap from cold storage: %w", err)
	}
	fmt.Printf("superlight client bootstrapped from cold storage: height %d, %d bytes of state\n",
		tip.Header.Height, client.StorageSize())
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
