package dcert

import (
	"testing"
)

// testConfig sizes a small, fast deployment.
func testConfig(w Workload) Config {
	return Config{
		Workload:    w,
		Contracts:   4,
		Accounts:    8,
		Difficulty:  2,
		Seed:        7,
		KeySpace:    30,
		CPUSortSize: 32,
		IOOpsPerTx:  3,
	}
}

// newTestDeployment builds a small, fast deployment.
func newTestDeployment(t *testing.T, w Workload) *Deployment {
	t.Helper()
	dep, err := NewDeployment(testConfig(w))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	return dep
}

func TestDeploymentEndToEnd(t *testing.T) {
	dep := newTestDeployment(t, KVStore)
	client := dep.NewSuperlightClient()

	for i := 0; i < 5; i++ {
		blk, cert, err := dep.MineAndCertify(10)
		if err != nil {
			t.Fatalf("MineAndCertify(%d): %v", i, err)
		}
		if err := client.ValidateChain(&blk.Header, cert); err != nil {
			t.Fatalf("ValidateChain(%d): %v", i, err)
		}
	}
	hdr, _ := client.Latest()
	if hdr.Height != 5 {
		t.Fatalf("client height = %d", hdr.Height)
	}
	if client.StorageSize() == 0 {
		t.Fatal("client must report a storage footprint")
	}
}

func TestDeploymentWithIndexesEndToEnd(t *testing.T) {
	dep := newTestDeployment(t, SmallBank)
	hist, err := dep.AddIndex(func() (*AuthIndex, error) {
		return NewHistoricalIndex("hist", "ct/")
	})
	if err != nil {
		t.Fatalf("AddIndex(hist): %v", err)
	}
	if _, err := dep.AddIndex(func() (*AuthIndex, error) {
		return NewKeywordIndex("kw")
	}); err != nil {
		t.Fatalf("AddIndex(kw): %v", err)
	}
	client := dep.NewSuperlightClient()
	names := []string{"hist", "kw"}

	for i := 0; i < 6; i++ {
		blk, blkCert, idxCerts, err := dep.MineAndCertifyHierarchical(12, names)
		if err != nil {
			t.Fatalf("MineAndCertifyHierarchical(%d): %v", i, err)
		}
		if err := client.ValidateChain(&blk.Header, blkCert); err != nil {
			t.Fatalf("ValidateChain: %v", err)
		}
		for j, name := range names {
			ix, err := dep.SP().Index(name)
			if err != nil {
				t.Fatalf("Index: %v", err)
			}
			r, err := ix.Root()
			if err != nil {
				t.Fatalf("Root: %v", err)
			}
			if err := client.ValidateIndex(name, &blk.Header, r, idxCerts[j]); err != nil {
				t.Fatalf("ValidateIndex(%s): %v", name, err)
			}
		}
	}

	// Run a verified historical query against the certified root.
	root, _, err := client.IndexRoot("hist")
	if err != nil {
		t.Fatalf("IndexRoot: %v", err)
	}
	spRoot, err := hist.Root()
	if err != nil {
		t.Fatalf("hist.Root: %v", err)
	}
	if root != spRoot {
		t.Fatal("client-certified root differs from SP root")
	}
	res, err := dep.SP().HistoricalQuery("hist", "ct/probe", 0, 100)
	if err != nil {
		t.Fatalf("HistoricalQuery: %v", err)
	}
	if err := VerifyHistorical(root, res); err != nil {
		t.Fatalf("VerifyHistorical(absent): %v", err)
	}

	// And a verified keyword query.
	kroot, _, err := client.IndexRoot("kw")
	if err != nil {
		t.Fatalf("IndexRoot(kw): %v", err)
	}
	kres, err := dep.SP().KeywordQuery("kw", []string{"deposit_check"})
	if err != nil {
		t.Fatalf("KeywordQuery: %v", err)
	}
	if err := VerifyKeyword(kroot, kres); err != nil {
		t.Fatalf("VerifyKeyword: %v", err)
	}
}

func TestDeploymentAllWorkloads(t *testing.T) {
	for _, w := range []Workload{DoNothing, CPUHeavy, IOHeavy, KVStore, SmallBank} {
		w := w
		t.Run(w.String(), func(t *testing.T) {
			dep := newTestDeployment(t, w)
			client := dep.NewSuperlightClient()
			blk, cert, err := dep.MineAndCertify(6)
			if err != nil {
				t.Fatalf("MineAndCertify: %v", err)
			}
			if err := client.ValidateChain(&blk.Header, cert); err != nil {
				t.Fatalf("ValidateChain: %v", err)
			}
		})
	}
}

func TestLightClientBaselineTracksChain(t *testing.T) {
	dep := newTestDeployment(t, KVStore)
	lc := dep.NewLightClient()

	for i := 0; i < 4; i++ {
		if _, _, err := dep.MineAndCertify(5); err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
	}
	if err := lc.Sync(dep.Miner().Store().Headers()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if lc.Height() != 4 {
		t.Fatalf("light client height = %d", lc.Height())
	}
	// Light client storage grows with the chain; superlight stays constant.
	client := dep.NewSuperlightClient()
	blk, cert, err := dep.MineAndCertify(5)
	if err != nil {
		t.Fatalf("MineAndCertify: %v", err)
	}
	if err := client.ValidateChain(&blk.Header, cert); err != nil {
		t.Fatalf("ValidateChain: %v", err)
	}
	if lc.StorageSize() <= client.StorageSize()/10 {
		// Not a strict relation at tiny chain lengths; just sanity.
		t.Logf("light=%d superlight=%d", lc.StorageSize(), client.StorageSize())
	}
}

func TestDefaultEnclaveCostModelExposed(t *testing.T) {
	if DefaultEnclaveCostModel().TransitionLatency <= 0 {
		t.Fatal("default cost model must charge transitions")
	}
}

func TestDeploymentWithSMTBackend(t *testing.T) {
	dep, err := NewDeployment(Config{
		Workload:     SmallBank,
		Contracts:    4,
		Accounts:     8,
		Difficulty:   2,
		Seed:         7,
		KeySpace:     30,
		StateBackend: StateBackendSMT,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	client := dep.NewSuperlightClient()
	for i := 0; i < 5; i++ {
		blk, cert, err := dep.MineAndCertify(12)
		if err != nil {
			t.Fatalf("MineAndCertify(%d): %v", i, err)
		}
		if err := client.ValidateChain(&blk.Header, cert); err != nil {
			t.Fatalf("ValidateChain(%d): %v", i, err)
		}
	}
	hdr, _ := client.Latest()
	if hdr.Height != 5 {
		t.Fatalf("client height = %d", hdr.Height)
	}
}
