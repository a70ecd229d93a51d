package dcert_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestPipelinedNodeJournals runs dcert-node -pipeline on a data directory and
// then a sequential dcert-node on the same directory: the pipelined run mines
// through the deployment's mining routine, so its blocks and certificates are
// journaled and the second run recovers them.
func TestPipelinedNodeJournals(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	nodeBin, _ := buildWireBinaries(t)
	dataDir := t.TempDir() + "/chain"
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(nodeBin, append(args, "-txs", "10", "-data-dir", dataDir)...).CombinedOutput()
		if err != nil {
			t.Fatalf("dcert-node %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := run("-pipeline", "2", "-blocks", "4")
	if got := strings.Count(out, "client-validate="); got != 4 {
		t.Fatalf("pipelined run validated %d blocks, want 4:\n%s", got, out)
	}
	out = run("-blocks", "1")
	if want := "recovered from " + dataDir + ": height=4 "; !strings.Contains(out, want) {
		t.Fatalf("second run does not report %q:\n%s", want, out)
	}
}
