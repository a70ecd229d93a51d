package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dcert"
	"dcert/internal/storage"
	"dcert/internal/storage/vfs"
)

// Storage durability experiment. Three questions about the crash-safe
// engine, each with a number the paper's deployment story depends on:
//
//   - sustained commit throughput: segment-log append rate with ~1 KB
//     records, per-record fsync vs group commit — the price of the "every
//     block durable before mining continues" setting against the batched
//     default;
//   - cold-start-to-certifying time: close a deployment with a six-figure
//     certified chain, reopen it, and measure how long until recovery,
//     node resume, tip-certificate adoption, and the first new
//     certificate complete;
//   - torn-tail recovery time: damage the chain log's tail (a torn final
//     frame, as a mid-write power cut leaves behind) and measure the
//     reopen-scan-truncate repair.

// StorageLogPoint is one fsync policy's append throughput.
type StorageLogPoint struct {
	// Mode names the fsync policy ("per-record fsync" or "group commit").
	Mode string `json:"mode"`
	// RecordsPerSec is the sustained append rate.
	RecordsPerSec float64 `json:"records_per_sec"`
	// MBPerSec is the corresponding byte throughput.
	MBPerSec float64 `json:"mb_per_sec"`
	// Fsyncs is how many fsyncs the run issued (counted at the vfs seam).
	Fsyncs uint64 `json:"fsyncs"`
}

// StorageResult is the full experiment output (and the BENCH_storage.json
// schema).
type StorageResult struct {
	Scale string `json:"scale"`
	// Blocks is the certified chain length built for the cold-start cycle.
	Blocks int `json:"blocks"`
	// LogRecords / LogRecordBytes size the segment-log microbenchmark.
	LogRecords     int               `json:"log_records"`
	LogRecordBytes int               `json:"log_record_bytes"`
	Log            []StorageLogPoint `json:"log"`
	// MineBlocksPerSec is the sustained mine→certify→journal loop rate
	// (group-commit fsync) while building the chain.
	MineBlocksPerSec float64 `json:"mine_blocks_per_sec"`
	// CloseSeconds is the shutdown cost (final snapshot + sync).
	CloseSeconds float64 `json:"close_seconds"`
	// ColdStartSeconds is OpenDeployment on the closed directory: log scan,
	// state image load, four full-node resumes, tip-certificate adoption.
	ColdStartSeconds float64 `json:"cold_start_seconds"`
	// FirstCertSeconds is cold start plus mining and certifying one new
	// block — the cold-start-to-certifying figure.
	FirstCertSeconds float64 `json:"first_cert_seconds"`
	// RecoveredHeight is the tip the cold start recovered.
	RecoveredHeight uint64 `json:"recovered_height"`
	// TornRecoveryMillis is the reopen time after the chain log's tail is
	// damaged (scan + physical truncation).
	TornRecoveryMillis float64 `json:"torn_recovery_millis"`
	// TornTruncatedBytes is how much the repair cut.
	TornTruncatedBytes int64 `json:"torn_truncated_bytes"`
	// TornRecoveredHeight is the tip after the torn-tail repair (the tip
	// certificate died with the tail, so one block is dropped).
	TornRecoveredHeight uint64 `json:"torn_recovered_height"`
}

// runStorageLog measures segment-log append throughput for one fsync policy.
func runStorageLog(records, recordBytes int, interval time.Duration, mode string) (StorageLogPoint, error) {
	dir, err := os.MkdirTemp("", "dcert-bench-seglog-")
	if err != nil {
		return StorageLogPoint{}, err
	}
	defer os.RemoveAll(dir)
	counter := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{}) // pass-through, counts ops
	lg, err := storage.OpenLog(counter, dir, storage.LogOptions{FsyncInterval: interval})
	if err != nil {
		return StorageLogPoint{}, err
	}
	payload := make([]byte, recordBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < records; i++ {
		if err := lg.Append(1, payload); err != nil {
			lg.Close()
			return StorageLogPoint{}, err
		}
	}
	if err := lg.Sync(); err != nil {
		lg.Close()
		return StorageLogPoint{}, err
	}
	elapsed := time.Since(start).Seconds()
	if err := lg.Close(); err != nil {
		return StorageLogPoint{}, err
	}
	return StorageLogPoint{
		Mode:          mode,
		RecordsPerSec: float64(records) / elapsed,
		MBPerSec:      float64(records*(recordBytes+9)) / elapsed / (1 << 20),
		Fsyncs:        counter.Stats().Syncs,
	}, nil
}

// RunStorage builds a certified chain on disk, cycles it through a clean
// close / cold start / torn-tail crash, and benchmarks the segment log's
// fsync policies.
func RunStorage(scale Scale) (*StorageResult, error) {
	blocks := 2000
	logRecords := 20000
	if scale == Paper {
		blocks = 100000
		logRecords = 100000
	}
	res := &StorageResult{
		Scale:          scale.String(),
		Blocks:         blocks,
		LogRecords:     logRecords,
		LogRecordBytes: 1024,
	}

	// Segment-log microbenchmark: the same record stream under the two
	// fsync policies.
	perRecord, err := runStorageLog(logRecords, res.LogRecordBytes, 0, "per-record fsync")
	if err != nil {
		return nil, err
	}
	grouped, err := runStorageLog(logRecords, res.LogRecordBytes, 5*time.Millisecond, "group commit 5ms")
	if err != nil {
		return nil, err
	}
	res.Log = []StorageLogPoint{perRecord, grouped}

	// Build the certified chain: a lean deployment (trivial PoW, no
	// simulated enclave overhead, one tx per block) so the loop measures
	// the certification + journaling path, not mining.
	dir, err := os.MkdirTemp("", "dcert-bench-storage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  2,
		Accounts:   4,
		Difficulty: 1,
		Seed:       7,
		KeySpace:   64,
		Storage:    &dcert.StorageConfig{Dir: dir, FsyncInterval: 5 * time.Millisecond},
	}
	dep, err := dcert.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	mineStart := time.Now()
	for i := 0; i < blocks; i++ {
		if _, _, err := dep.MineAndCertify(1); err != nil {
			return nil, fmt.Errorf("bench: storage mine block %d: %w", i+1, err)
		}
	}
	res.MineBlocksPerSec = float64(blocks) / time.Since(mineStart).Seconds()

	closeStart := time.Now()
	if err := dep.Close(); err != nil {
		return nil, err
	}
	res.CloseSeconds = time.Since(closeStart).Seconds()

	// Cold start: reopen the data directory and certify one new block.
	openStart := time.Now()
	resumed, err := dcert.OpenDeployment(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: storage cold start: %w", err)
	}
	res.ColdStartSeconds = time.Since(openStart).Seconds()
	rec := resumed.StorageRecovery()
	if rec == nil || rec.TipHeight() != uint64(blocks) {
		resumed.Close()
		return nil, fmt.Errorf("bench: cold start recovered height %d, want %d", rec.TipHeight(), blocks)
	}
	res.RecoveredHeight = rec.TipHeight()
	if _, _, err := resumed.MineAndCertify(1); err != nil {
		resumed.Close()
		return nil, fmt.Errorf("bench: storage first cert: %w", err)
	}
	res.FirstCertSeconds = time.Since(openStart).Seconds()
	if err := resumed.Close(); err != nil {
		return nil, err
	}

	// Torn tail: cut into the chain log's final frame (the tip
	// certificate), reopen the engine, and time the scan-and-repair.
	osFS := vfs.OS{}
	segs, err := osFS.ReadDir(vfs.Join(dir, "chain"))
	if err != nil || len(segs) == 0 {
		return nil, fmt.Errorf("bench: chain segments: %v", err)
	}
	last := vfs.Join(dir, "chain", segs[len(segs)-1])
	f, err := osFS.OpenFile(last, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err == nil {
		err = f.Truncate(size - 17)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tornStart := time.Now()
	eng, err := storage.OpenEngine(dir, storage.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: torn-tail reopen: %w", err)
	}
	res.TornRecoveryMillis = float64(time.Since(tornStart).Microseconds()) / 1e3
	tornRec := eng.Recovery()
	res.TornTruncatedBytes = tornRec.TruncatedBytes
	res.TornRecoveredHeight = tornRec.TipHeight()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if !tornRec.Torn || res.TornRecoveredHeight >= res.RecoveredHeight+1 {
		return nil, fmt.Errorf("bench: torn-tail repair recovered height %d of %d (torn=%v)",
			res.TornRecoveredHeight, res.RecoveredHeight+1, tornRec.Torn)
	}
	return res, nil
}

// WriteJSON persists the result (the make bench-json artifact).
func (r *StorageResult) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Table renders the result.
func (r *StorageResult) Table() *Table {
	t := &Table{
		Title: "storage — durable engine: commit throughput and crash recovery",
		Note: fmt.Sprintf("certified chain of %d blocks; log microbenchmark %d × %d B records",
			r.Blocks, r.LogRecords, r.LogRecordBytes),
		Columns: []string{"metric", "value"},
	}
	for _, p := range r.Log {
		t.Rows = append(t.Rows, []string{
			"log append, " + p.Mode,
			fmt.Sprintf("%.0f rec/s (%.1f MB/s, %d fsyncs)", p.RecordsPerSec, p.MBPerSec, p.Fsyncs),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"mine+certify+journal", fmt.Sprintf("%.0f blocks/s", r.MineBlocksPerSec)},
		[]string{"clean close (snapshot)", fmt.Sprintf("%.3f s", r.CloseSeconds)},
		[]string{"cold start (recover+resume)", fmt.Sprintf("%.3f s to height %d", r.ColdStartSeconds, r.RecoveredHeight)},
		[]string{"cold start to first certificate", fmt.Sprintf("%.3f s", r.FirstCertSeconds)},
		[]string{"torn-tail repair", fmt.Sprintf("%.1f ms (%d B cut, tip %d)", r.TornRecoveryMillis, r.TornTruncatedBytes, r.TornRecoveredHeight)},
	)
	return t
}
