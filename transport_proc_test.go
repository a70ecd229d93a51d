package dcert_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Cross-process integration: the wire transport's reason to exist. These
// tests build the real dcert-node and dcert-query binaries, run them as
// separate OS processes connected only by a loopback TCP socket, and assert
// that certified queries verify end to end — including across a SIGKILL and
// a durable restart of the node.

// buildWireBinaries compiles both commands into a scratch dir once per test.
func buildWireBinaries(t *testing.T) (nodeBin, queryBin string) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./cmd/dcert-node", "./cmd/dcert-query")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir + "/dcert-node", dir + "/dcert-query"
}

// syncBuffer is a mutex-guarded log sink: exec.Cmd writes stderr into it
// from its own copier goroutine while the test reads it on failure.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// wireNode is one running dcert-node -listen process.
type wireNode struct {
	cmd   *exec.Cmd
	addr  string
	mined chan struct{}
	logs  syncBuffer
}

// startWireNode launches the node and waits for its readiness line,
// returning once the wire address is known.
func startWireNode(t *testing.T, bin, dataDir string, blocks int) *wireNode {
	t.Helper()
	n := &wireNode{cmd: exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-blocks", strconv.Itoa(blocks),
		"-txs", "10",
		"-data-dir", dataDir,
	)}
	stdout, err := n.cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	n.cmd.Stderr = &n.logs
	if err := n.cmd.Start(); err != nil {
		t.Fatalf("start node: %v", err)
	}
	t.Cleanup(func() {
		n.cmd.Process.Kill()
		n.cmd.Wait()
	})

	addrCh := make(chan string, 1)
	n.mined = make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(&n.logs, line)
			if rest, ok := strings.CutPrefix(line, "wire: serving on "); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
			if strings.HasPrefix(line, "wire: mining done") {
				close(n.mined)
			}
		}
	}()
	select {
	case n.addr = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatalf("node never became ready; logs:\n%s", n.logs.String())
	}
	return n
}

// waitMined blocks until the node reports its mining run complete, so
// queries see the full chain rather than racing the miner.
func (n *wireNode) waitMined(t *testing.T) {
	t.Helper()
	select {
	case <-n.mined:
	case <-time.After(60 * time.Second):
		t.Fatalf("node never finished mining; logs:\n%s", n.logs.String())
	}
}

// kill SIGKILLs the node — no graceful shutdown, as a crash would.
func (n *wireNode) kill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill node: %v", err)
	}
	n.cmd.Wait()
}

var tipHeightRE = regexp.MustCompile(`certified tip height (\d+) VERIFIED`)

// runWireQuery runs dcert-query -connect and returns the verified tip
// height it reported.
func runWireQuery(t *testing.T, bin, addr string) uint64 {
	t.Helper()
	out, err := exec.Command(bin, "-connect", addr).CombinedOutput()
	if err != nil {
		t.Fatalf("dcert-query -connect %s: %v\n%s", addr, err, out)
	}
	if !strings.Contains(string(out), "(RPC path)") {
		t.Fatalf("query output missing the verified query:\n%s", out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "FAILED") {
			t.Fatalf("remote verification failed: %s", line)
		}
	}
	m := tipHeightRE.FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("query output carries no verified tip height:\n%s", out)
	}
	h, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatalf("parse height %q: %v", m[1], err)
	}
	return h
}

// TestCrossProcessCertifiedQueries runs node and client as separate OS
// processes over loopback TCP: the client fetches trust anchors, validates
// the certificate chain, and verifies state queries — then the node is
// SIGKILLed and restarted from its data directory, and a fresh client
// verifies again at a strictly higher certified height.
func TestCrossProcessCertifiedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	nodeBin, queryBin := buildWireBinaries(t)
	dataDir := t.TempDir() + "/chain"

	node := startWireNode(t, nodeBin, dataDir, 3)
	node.waitMined(t)
	h1 := runWireQuery(t, queryBin, node.addr)
	if h1 != 3 {
		t.Fatalf("first run: verified height %d, want 3", h1)
	}

	// Crash the node mid-flight and restart it from the same directory: the
	// storage engine recovers the chain, a fresh enclave resumes the
	// certificate recursion, and remote clients verify the longer chain.
	// Recovery trims to the certified-on-disk prefix, so a SIGKILL that
	// outraces the final group-commit fsync may legally shed the very last
	// block — hence mining enough new blocks to clear the old tip with
	// margin, and asserting strictly-higher rather than an exact height.
	node.kill(t)
	node2 := startWireNode(t, nodeBin, dataDir, 3)
	node2.waitMined(t)
	h2 := runWireQuery(t, queryBin, node2.addr)
	if h2 <= h1 {
		t.Fatalf("after restart: verified height %d, want > %d; node logs:\n%s", h2, h1, node2.logs.String())
	}
}
