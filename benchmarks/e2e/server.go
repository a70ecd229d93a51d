package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
)

// Harness routes the server child mounts beside the standard wire routes.
const (
	routeMine    = "bench/mine"     // mine one block into the pipeline
	routeMineIdx = "bench/mine-idx" // mine one hierarchically certified block
	routeAnchor  = "bench/anchor"   // newest block and index certificates
	routeKeys    = "bench/keys"     // written state keys, sorted
	routeStats   = "bench/stats"    // process and layer counters
)

// serverStats is the reply of routeStats.
type serverStats struct {
	CPUSeconds   float64 // user+sys of the server process so far
	PeakRSSBytes int64
	DataDirBytes int64
	Height       uint64
	Counters     serverCounters
}

// serveChild is the server process: it builds the workload's chain, serves
// the wire on loopback, prints its address and runs until stdin closes.
func serveChild(w *workload, seed int64, dataDir string) error {
	srv, err := openServer(w.Chain, seed, dataDir)
	if err != nil {
		return err
	}
	h := &harness{srv: srv, w: w, dataDir: dataDir}
	if err := h.buildChain(); err != nil {
		return err
	}
	addr, err := srv.serve()
	if err != nil {
		return err
	}
	srv.handle(routeMine, h.mine)
	srv.handle(routeMineIdx, h.mineIdx)
	srv.handle(routeAnchor, func([]byte) ([]byte, error) { return h.anchor, nil })
	srv.handle(routeKeys, h.keys)
	srv.handle(routeStats, h.stats)
	fmt.Printf("READY %s\n", addr)

	// The driver holds our stdin; when it closes (or the driver dies) we go.
	io.Copy(io.Discard, os.Stdin)
	return srv.close()
}

type harness struct {
	srv     *server
	w       *workload
	dataDir string

	// mu serialises mining: the deployment's generator and miner are not
	// safe for concurrent use.
	mu     sync.Mutex
	anchor []byte
}

// buildChain mines the set-up chain the way the workload certifies.
func (h *harness) buildChain() error {
	spec := h.w.Chain
	switch {
	case spec.Pipelined:
		var tip uint64
		for i := 0; i < spec.Blocks; i++ {
			var err error
			if tip, err = h.srv.mineStream(); err != nil {
				return err
			}
		}
		for deadline := time.Now().Add(30 * time.Second); h.srv.certifiedHeight() < tip; {
			if time.Now().After(deadline) {
				return fmt.Errorf("set-up blocks never certified")
			}
			time.Sleep(time.Millisecond)
		}
	case spec.SegmentK > 0:
		for i := 0; i < spec.Blocks/spec.SegmentK; i++ {
			if err := h.srv.mineSegment(); err != nil {
				return err
			}
		}
	case spec.Indexed:
		for i := 0; i < spec.Blocks; i++ {
			if _, err := h.mineIdxN(spec.Txs); err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *harness) mine([]byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	height, err := h.srv.mineStream()
	if err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint64(nil, height), nil
}

func (h *harness) mineIdx([]byte) ([]byte, error) {
	return h.mineIdxN(h.w.IngestTxs)
}

func (h *harness) mineIdxN(txs int) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bundle, idx, err := h.srv.mineIndexed(txs)
	if err != nil {
		return nil, err
	}
	h.anchor = encodeAnchor(bundle, idx)
	return h.anchor, nil
}

// keys lists every state key a set transaction of the chain wrote.
func (h *harness) keys([]byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys, err := writtenKeys(h.srv.blockAt, h.srv.height())
	if err != nil {
		return nil, err
	}
	return []byte(strings.Join(keys, "\n")), nil
}

func (h *harness) stats([]byte) ([]byte, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	st := serverStats{
		CPUSeconds:   tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		PeakRSSBytes: ru.Maxrss * 1024, // Linux reports KiB
		DataDirBytes: dirBytes(h.dataDir),
		Height:       h.srv.height(),
		Counters:     h.srv.counters(),
	}
	return json.Marshal(st)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// anchorMsg is what a client needs to adopt an indexed block: the bundle and
// each index's certified root.
type anchorMsg struct {
	Bundle  *certBundle
	Indexes []indexAnchor
}

func encodeAnchor(b *certBundle, idx []indexAnchor) []byte {
	e := chash.NewEncoder(8192)
	e.PutBytes(b.Header.Marshal())
	e.PutBytes(b.Cert.Marshal())
	e.PutUint32(uint32(len(idx)))
	for _, a := range idx {
		e.PutString(a.Name)
		e.PutHash(a.Root)
		e.PutBytes(a.Cert.Marshal())
	}
	return e.Bytes()
}

func decodeAnchor(raw []byte) (*anchorMsg, error) {
	d := chash.NewDecoder(raw)
	hdrRaw, err := d.ReadBytes()
	if err != nil {
		return nil, err
	}
	certRaw, err := d.ReadBytes()
	if err != nil {
		return nil, err
	}
	hdr, err := chain.UnmarshalHeader(hdrRaw)
	if err != nil {
		return nil, err
	}
	cert, err := core.UnmarshalCertificate(certRaw)
	if err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > 16 {
		return nil, fmt.Errorf("anchor: %d indexes", n)
	}
	msg := &anchorMsg{Bundle: &certBundle{Header: hdr, Cert: cert}}
	for i := uint32(0); i < n; i++ {
		var a indexAnchor
		if a.Name, err = d.ReadString(); err != nil {
			return nil, err
		}
		if a.Root, err = d.ReadHash(); err != nil {
			return nil, err
		}
		raw, err := d.ReadBytes()
		if err != nil {
			return nil, err
		}
		if a.Cert, err = core.UnmarshalCertificate(raw); err != nil {
			return nil, err
		}
		msg.Indexes = append(msg.Indexes, a)
	}
	return msg, d.Finish()
}

// readReady waits for the child's READY line.
func readReady(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
			return addr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("server exited before it was ready")
}
