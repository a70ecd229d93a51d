package core

import (
	"errors"
	"testing"

	"dcert/internal/enclave"
	"dcert/internal/workload"
)

// certifyBlocks mines and certifies n blocks on the env's issuer.
func certifyBlocks(t *testing.T, e *env, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		blk := e.mine(t, 4)
		if _, _, err := e.issuer.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock(%d): %v", i, err)
		}
	}
}

// TestIssuerCrashRestartResumesFromCheckpoint is the recovery contract: a
// restarted CI adopts the persisted tip certificate and continues the recursion
// from the crash point — its fresh enclave performs zero Ecalls for already
// certified history (it never re-executes certification from genesis), and
// clients accept its certificates after one new attestation check.
func TestIssuerCrashRestartResumesFromCheckpoint(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	client := e.client()
	certifyBlocks(t, e, 4)
	hdr := e.issuer.Node().Tip().Header
	if err := client.ValidateChain(&hdr, e.issuer.LatestCert()); err != nil {
		t.Fatalf("pre-crash ValidateChain: %v", err)
	}
	oldKey := string(e.issuer.Enclave().PublicKey().Marshal())

	// "Crash": the enclave (and its sealed key) is gone; the full-node
	// replica and the tip certificate's bytes on the chain log survive.
	raw := e.issuer.LatestCert().Marshal()
	survivingNode := e.issuer.Node()
	e.issuer = nil

	tipCert, err := UnmarshalCertificate(raw)
	if err != nil {
		t.Fatalf("UnmarshalCertificate: %v", err)
	}
	platform, err := e.authority.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	resumed, err := ResumeIssuer(survivingNode, e.authority, platform, enclave.CostModel{}, tipCert)
	if err != nil {
		t.Fatalf("ResumeIssuer: %v", err)
	}
	if got := resumed.Enclave().Stats().Ecalls; got != 0 {
		t.Fatalf("restart performed %d Ecalls before any new block — it re-certified history", got)
	}
	if string(resumed.Enclave().PublicKey().Marshal()) == oldKey {
		t.Fatal("restarted enclave must generate a fresh sealed key")
	}

	// Certification resumes from the tip certificate: the next block's enclave
	// call verifies the predecessor's certificate and extends the chain.
	e.issuer = resumed
	blk := e.mine(t, 4)
	cert, _, err := resumed.ProcessBlock(blk)
	if err != nil {
		t.Fatalf("post-restart ProcessBlock: %v", err)
	}
	if blk.Header.Height != 5 {
		t.Fatalf("post-restart block height = %d, want 5", blk.Header.Height)
	}
	if got := resumed.Enclave().Stats().Ecalls; got != 1 {
		t.Fatalf("one new block cost %d Ecalls, want exactly 1", got)
	}
	// The client crosses enclave instances transparently: same measurement,
	// one fresh attestation-report check for the new key.
	if err := client.ValidateChain(&blk.Header, cert); err != nil {
		t.Fatalf("ValidateChain across restart: %v", err)
	}
}

func TestResumeIssuerRejectsBadCheckpoints(t *testing.T) {
	e := newEnv(t, workload.KVStore, enclave.CostModel{})
	certifyBlocks(t, e, 2)
	stale := e.issuer.LatestCert()
	certifyBlocks(t, e, 2) // tip moves past the stale certificate

	platform, err := e.authority.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	n := e.issuer.Node()

	if _, err := ResumeIssuer(n, e.authority, platform, enclave.CostModel{}, stale); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("stale certificate: want ErrBadCheckpoint, got %v", err)
	}
	if _, err := ResumeIssuer(n, e.authority, platform, enclave.CostModel{}, nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil certificate past genesis: want ErrBadCheckpoint, got %v", err)
	}

	tip := e.issuer.LatestCert()
	sig := append([]byte(nil), tip.Sig...)
	sig[0] ^= 0xFF
	tampered := &Certificate{
		PubKey: tip.PubKey,
		Report: tip.Report,
		Digest: tip.Digest,
		Sig:    sig,
	}
	if _, err := ResumeIssuer(n, e.authority, platform, enclave.CostModel{}, tampered); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("tampered certificate: want ErrBadCheckpoint, got %v", err)
	}
}
