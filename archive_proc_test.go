package dcert_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestArchiveCommandColdStart runs dcert-archive on a data directory: it
// mines a certified chain into the directory, reopens the chain log cold,
// re-validates every block into a fresh node and bootstraps a superlight
// client from the log's tip certificate. A second run on the same directory
// must refuse to mine over the chain already there.
func TestArchiveCommandColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	bin := t.TempDir() + "/dcert-archive"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dcert-archive").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir() + "/chain"
	run := func() (string, error) {
		out, err := exec.Command(bin, "-blocks", "4", "-txs", "5", "-out", dataDir).CombinedOutput()
		return string(out), err
	}

	out, err := run()
	if err != nil {
		t.Fatalf("dcert-archive: %v\n%s", err, out)
	}
	for _, want := range []string{"re-validated 4 blocks", "bootstrapped from cold storage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	// The chain log is the one on-disk chain format: beside it sits only the
	// state snapshot/WAL, and no separate restart record.
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "chain state" {
		t.Fatalf("data directory holds %q, want \"chain state\"", got)
	}

	out, err = run()
	if err == nil {
		t.Fatalf("second run on a data directory holding a chain succeeded:\n%s", out)
	}
	if !strings.Contains(out, "already holds a chain") {
		t.Fatalf("second run failed for another reason:\n%s", out)
	}
}
