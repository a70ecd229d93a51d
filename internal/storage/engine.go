package storage

import (
	"fmt"
	"os"
	"sync"
	"time"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/obs"
	"dcert/internal/storage/vfs"
)

// tagState frames a state-WAL record (height, post-root, write set) in the
// engine's state log.
const tagState byte = 3

// Engine is the crash-safe durable backend for a DCert deployment. It
// persists three artifacts under one data directory:
//
//	<dir>/chain/NNNNNNNN.seg   append-only block+certificate segment log
//	<dir>/state/wal/*.seg      state write-set WAL since the last snapshot
//	<dir>/state/snap           atomic-rename snapshot of the full state image
//
// The certificate of the recovered tip, read from the chain log, is the
// issuer's restart record: it recursively attests every block below it.
//
// Durability ordering: a block frame is appended before its certificate
// frame, and the certificate frame before the state WAL record, all within
// append-only logs whose fsync covers every earlier byte. A crash therefore
// loses only a suffix of each log, and recovery always reconstructs a
// prefix of the certified chain — never a gap, never a torn frame served.
//
// Recovery truncates each log physically to what it keeps, so a restarted
// deployment can never append a height the log already holds under a
// different hash.
type Engine struct {
	mu sync.Mutex

	fs  vfs.FS
	dir string

	chainLog *Log
	stateWAL *Log

	snapshotEvery uint64

	// Materialized view of the persisted chain.
	blocks  []*chain.Block        // height-indexed, blocks[0] = genesis
	heights map[chash.Hash]uint64 // block hash → height, for every block in blocks
	certs   map[chash.Hash]*core.Certificate

	// mirror is the engine's own key/value image of the statedb at
	// mirrorHeight, maintained from write sets (the statedb interface has no
	// iterator, so the engine keeps the image needed for snapshots itself).
	mirror       map[string][]byte
	mirrorHeight uint64
	mirrorRoot   chash.Hash
	snapHeight   uint64 // height of the last durable state snapshot

	rec *Recovery

	// Metrics (nil-safe when not instrumented).
	mBlocks    *obs.Counter
	mSnapshots *obs.Counter
	mSnapSecs  *obs.Histogram
}

// Options configures an Engine.
type Options struct {
	// FS is the file-system seam; nil means the real OS. Chaos plans pass a
	// vfs.Fault here.
	FS vfs.FS
	// FsyncInterval batches log fsyncs (group commit). Zero syncs every
	// append — full durability per record.
	FsyncInterval time.Duration
	// SegmentBytes rotates log segments at this size (default 64 MiB).
	SegmentBytes int64
	// SnapshotEvery writes a state snapshot every N certified blocks and
	// resets the WAL (default 4096).
	SnapshotEvery uint64
}

// Recovery describes what Open reconstructed from disk.
type Recovery struct {
	// Blocks is the recovered certified prefix, including genesis. Empty for
	// a fresh data directory.
	Blocks []*chain.Block
	// Certs maps recovered block hashes to certificates. The recovered tip
	// is the highest block with a certificate, so above genesis its
	// certificate is always here: it is the issuer's restart record.
	Certs map[chash.Hash]*core.Certificate
	// State is the durable state image at StateHeight, or nil when the
	// snapshot+WAL could not cover the recovered chain (the caller replays
	// transactions from genesis instead).
	State       map[string][]byte
	StateHeight uint64
	StateRoot   chash.Hash
	// WALRecords counts state WAL records applied on top of the snapshot.
	WALRecords int
	// DroppedBlocks counts blocks discarded because the crash lost their
	// certificate (the un-certified tail).
	DroppedBlocks int
	// TruncatedBytes counts bytes cut from torn/corrupt log tails.
	TruncatedBytes int64
	// Torn reports whether any log needed tail repair.
	Torn bool
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// TipHeight is the height of the recovered tip (0 for genesis or empty).
func (r *Recovery) TipHeight() uint64 {
	if len(r.Blocks) == 0 {
		return 0
	}
	return r.Blocks[len(r.Blocks)-1].Header.Height
}

// HasData reports whether a data directory holds an existing chain log, i.e.
// whether OpenEngine would recover rather than start fresh.
func HasData(fs vfs.FS, dir string) bool {
	if fs == nil {
		fs = vfs.OS{}
	}
	names, err := fs.ReadDir(vfs.Join(dir, "chain"))
	return err == nil && len(names) > 0
}

// OpenEngine opens (creating if needed) a data directory and recovers its
// contents. The returned engine is ready for Bootstrap and ApplyBlock.
func OpenEngine(dir string, opts Options) (*Engine, error) {
	start := time.Now()
	if opts.FS == nil {
		opts.FS = vfs.OS{}
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 4096
	}
	logOpts := LogOptions{SegmentBytes: opts.SegmentBytes, FsyncInterval: opts.FsyncInterval}

	e := &Engine{
		fs:            opts.FS,
		dir:           dir,
		snapshotEvery: opts.SnapshotEvery,
		heights:       make(map[chash.Hash]uint64),
		certs:         make(map[chash.Hash]*core.Certificate),
		mirror:        make(map[string][]byte),
	}

	var err error
	e.chainLog, err = OpenLog(opts.FS, vfs.Join(dir, "chain"), logOpts)
	if err != nil {
		return nil, err
	}
	e.stateWAL, err = OpenLog(opts.FS, vfs.Join(dir, "state", "wal"), logOpts)
	if err != nil {
		e.chainLog.Close()
		return nil, err
	}

	if err := e.recover(); err != nil {
		e.chainLog.Close()
		e.stateWAL.Close()
		return nil, err
	}
	e.rec.Elapsed = time.Since(start)
	return e, nil
}

// chainRecord is one scanned chain-log record with its physical position.
type chainRecord struct {
	tag     byte
	height  uint64 // block records
	block   *chain.Block
	hash    chash.Hash // the block's hash (cert records: the certified block's)
	cert    *core.Certificate
	seg     int
	end     int64
	keep    bool
	decoded bool
}

// recover reconstructs the certified prefix from the chain log and the state
// image from snapshot+WAL. It physically truncates both logs to exactly what
// it keeps.
func (e *Engine) recover() error {
	rec := &Recovery{Certs: e.certs}
	chainRec := e.chainLog.Recovery()
	walRec := e.stateWAL.Recovery()
	rec.Torn = chainRec.Torn || walRec.Torn
	rec.TruncatedBytes = chainRec.TruncatedBytes + walRec.TruncatedBytes
	e.rec = rec

	// Pass 1: structurally decode the chain log in append order, stopping at
	// the first anomaly (CRC-valid frames with garbage inside, out-of-order
	// heights, certs for unknown blocks). Everything from the anomaly on is
	// treated like a torn tail.
	var records []*chainRecord
	byHash := make(map[chash.Hash]uint64) // block hash → height
	nextHeight := uint64(0)
	anomaly := false
	err := e.chainLog.scanPos(func(tag byte, payload []byte, seg int, end int64) error {
		if anomaly {
			return nil
		}
		r := &chainRecord{tag: tag, seg: seg, end: end}
		switch tag {
		case tagBlock:
			blk, err := chain.UnmarshalBlock(payload)
			if err != nil || blk.Header.Height != nextHeight {
				anomaly = true
				return nil
			}
			r.block, r.hash, r.height, r.decoded = blk, blk.Hash(), blk.Header.Height, true
			byHash[r.hash] = blk.Header.Height
			nextHeight++
		case tagCert:
			h, cert, err := decodeCertPayload(payload)
			if err != nil {
				anomaly = true
				return nil
			}
			height, ok := byHash[h]
			if !ok {
				anomaly = true
				return nil
			}
			r.hash, r.cert, r.height, r.decoded = h, cert, height, true
		default:
			anomaly = true
			return nil
		}
		records = append(records, r)
		return nil
	})
	if err != nil {
		return err
	}

	// Pass 2: find the certified prefix. The recursive certificate at height
	// h attests the entire chain below it, so the recovered tip is the
	// highest block that has a certificate on disk; blocks above it are the
	// un-certified tail the crash made unprovable, and are dropped.
	certifiedTip := uint64(0)
	for _, r := range records {
		if r.tag == tagCert && r.height > certifiedTip {
			certifiedTip = r.height
		}
	}
	lastKeep := -1
	for i, r := range records {
		if r.height <= certifiedTip {
			r.keep = true
			lastKeep = i
		}
	}
	if anomaly {
		rec.Torn = true
	}

	// Pass 3: make the kept set the log's physical content. If the kept
	// records form a contiguous prefix a cheap tail truncation suffices;
	// otherwise (a dropped block sits between kept records) the log is
	// rewritten from the decoded kept records.
	contiguous := true
	for i := 0; i <= lastKeep; i++ {
		if !records[i].keep {
			contiguous = false
			break
		}
	}
	switch {
	case lastKeep < 0 && len(records) > 0:
		// Nothing certifiable survived; start the log over.
		if err := e.chainLog.Reset(); err != nil {
			return err
		}
		rec.Torn = true
	case lastKeep >= 0 && (lastKeep < len(records)-1 || !contiguous):
		rec.Torn = true
		if contiguous {
			if err := e.chainLog.TruncateTail(records[lastKeep].seg, records[lastKeep].end); err != nil {
				return err
			}
		} else if err := e.rewriteChainLog(records[:lastKeep+1]); err != nil {
			return err
		}
	}

	// Materialize the kept view.
	for _, r := range records[:lastKeep+1] {
		if !r.keep {
			rec.DroppedBlocks++
			continue
		}
		switch r.tag {
		case tagBlock:
			e.blocks = append(e.blocks, r.block)
			e.heights[r.hash] = r.height
		case tagCert:
			e.certs[r.hash] = r.cert
		}
	}
	rec.DroppedBlocks += len(records) - 1 - lastKeep
	rec.Blocks = e.blocks

	// State: snapshot first, then WAL records on top, capped at the
	// recovered tip. A snapshot ahead of the recovered chain (tail was
	// dropped after the snapshot was cut) is unusable.
	if err := e.recoverState(certifiedTip); err != nil {
		return err
	}
	return nil
}

// rewriteChainLog rebuilds the chain log from decoded kept records — the
// slow path for recoveries where dropped blocks interleave with kept
// certificates (e.g. a crash during issuer catch-up re-certification).
func (e *Engine) rewriteChainLog(records []*chainRecord) error {
	if err := e.chainLog.Reset(); err != nil {
		return err
	}
	for _, r := range records {
		if !r.keep {
			continue
		}
		var payload []byte
		switch r.tag {
		case tagBlock:
			payload = r.block.Marshal()
		case tagCert:
			payload = encodeCertPayload(r.hash, r.cert)
		}
		if err := e.chainLog.Append(r.tag, payload); err != nil {
			return err
		}
	}
	return e.chainLog.Sync()
}

// recoverState loads snapshot + WAL into the engine mirror, capped at tip
// height, and physically truncates the WAL past what was applied.
func (e *Engine) recoverState(tipHeight uint64) error {
	snapPath := vfs.Join(e.dir, "state", "snap")
	raw, err := readSnapshot(e.fs, snapPath)
	switch {
	case err == nil:
		height, root, kv, derr := decodeStateRecord(raw)
		if derr != nil || height > tipHeight {
			// Corrupt image, or a snapshot ahead of the recovered chain.
			e.mirror = make(map[string][]byte)
		} else {
			e.mirror, e.mirrorHeight, e.mirrorRoot = kv, height, root
			e.snapHeight = height
		}
	case os.IsNotExist(err):
		// No snapshot yet: the WAL alone must carry the image from genesis.
	default:
		// Structurally damaged snapshot: ignore it and fall back to replay.
		e.mirror = make(map[string][]byte)
	}

	// Apply WAL records strictly in height order on top of the snapshot.
	type pos struct {
		seg int
		end int64
	}
	var lastApplied *pos
	err = e.stateWAL.scanPos(func(tag byte, payload []byte, seg int, end int64) error {
		if tag != tagState {
			return nil
		}
		height, root, writes, derr := decodeStateRecord(payload)
		if derr != nil {
			return nil
		}
		if height != e.mirrorHeight+1 || height > tipHeight {
			// Stale (pre-snapshot), gapped, or beyond the recovered chain.
			return nil
		}
		applyWrites(e.mirror, writes)
		e.mirrorHeight, e.mirrorRoot = height, root
		lastApplied = &pos{seg: seg, end: end}
		e.rec.WALRecords++
		return nil
	})
	if err != nil {
		return err
	}

	// Cross-check the mirror against the chain's own state commitment; a
	// mismatch means the image cannot be trusted and the caller must replay.
	valid := e.mirrorHeight > 0 &&
		e.mirrorHeight < uint64(len(e.blocks)) &&
		e.blocks[e.mirrorHeight].Header.StateRoot == e.mirrorRoot
	if len(e.blocks) == 0 {
		// Fresh directory: nothing to mirror yet.
		e.mirror = make(map[string][]byte)
		e.mirrorHeight, e.mirrorRoot = 0, chash.Hash{}
		e.snapHeight = 0
		if err := e.stateWAL.Reset(); err != nil {
			return err
		}
		return nil
	}
	if !valid {
		e.mirror = make(map[string][]byte)
		e.mirrorHeight, e.mirrorRoot = 0, chash.Hash{}
		e.snapHeight = 0
		if err := e.stateWAL.Reset(); err != nil {
			return err
		}
		if vfs.Exists(e.fs, snapPath) {
			if err := e.fs.Remove(snapPath); err != nil {
				return fmt.Errorf("storage: drop stale snapshot: %w", err)
			}
		}
		e.rec.State, e.rec.StateHeight = nil, 0
		return nil
	}

	// Truncate WAL records beyond the last applied one so a restarted
	// session cannot leave two write sets for one height on disk.
	if lastApplied != nil {
		if err := e.stateWAL.TruncateTail(lastApplied.seg, lastApplied.end); err != nil {
			return err
		}
	} else if e.stateWAL.Size() > 0 && e.rec.WALRecords == 0 && e.mirrorHeight == e.snapHeight {
		// WAL holds only stale (pre-snapshot) or future records; clear it.
		if err := e.stateWAL.Reset(); err != nil {
			return err
		}
	}

	e.rec.State = copyImage(e.mirror)
	e.rec.StateHeight = e.mirrorHeight
	e.rec.StateRoot = e.mirrorRoot
	return nil
}

// Bootstrap fixes the genesis block for a fresh engine, or verifies it
// against the recovered chain. Must be called once before ApplyBlock. The
// genesis state image is empty: the WAL carries per-block write sets, and
// every snapshot chain is rooted at height 0.
func (e *Engine) Bootstrap(genesis *chain.Block) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.blocks) == 0 {
		if genesis.Header.Height != 0 {
			return fmt.Errorf("storage: bootstrap block has height %d", genesis.Header.Height)
		}
		if err := e.chainLog.Append(tagBlock, genesis.Marshal()); err != nil {
			return err
		}
		if err := e.chainLog.Sync(); err != nil {
			return err
		}
		e.blocks = append(e.blocks, genesis)
		e.heights[genesis.Hash()] = 0
		e.mirror = make(map[string][]byte)
		e.mirrorHeight, e.mirrorRoot = 0, genesis.Header.StateRoot
		return e.snapshotLocked()
	}
	if e.blocks[0].Hash() != genesis.Hash() {
		return fmt.Errorf("%w: data directory belongs to a different genesis", ErrCorrupt)
	}
	if e.rec.State == nil {
		// The snapshot+WAL image did not survive; re-root the mirror at
		// genesis so the transaction replay (ResumeNode) can re-journal
		// every block's write set on a complete base image.
		return e.resetStateLocked(genesis.Header.StateRoot)
	}
	return nil
}

// ApplyBlock persists a newly certified block: the block frame, its
// certificate frame (when present), and the state write set, in that order.
// Heights at or below the persisted tip are ignored (idempotent under
// multi-issuer fan-out); heights beyond tip+1 are an error.
func (e *Engine) ApplyBlock(blk *chain.Block, cert *core.Certificate, writes map[string][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.blocks) == 0 {
		return fmt.Errorf("storage: ApplyBlock before Bootstrap")
	}
	tip := e.blocks[len(e.blocks)-1]
	h := blk.Header.Height
	if h <= tip.Header.Height {
		return nil
	}
	if h != tip.Header.Height+1 || blk.Header.PrevHash != tip.Hash() {
		return fmt.Errorf("storage: non-contiguous block %d on tip %d", h, tip.Header.Height)
	}

	hash := blk.Hash()
	if err := e.chainLog.Append(tagBlock, blk.Marshal()); err != nil {
		return err
	}
	if cert != nil {
		if err := e.appendCertLocked(hash, cert); err != nil {
			return err
		}
	}
	if err := e.stateWAL.Append(tagState, encodeStateRecord(h, blk.Header.StateRoot, writes)); err != nil {
		return err
	}

	e.blocks = append(e.blocks, blk)
	e.heights[hash] = h
	applyWrites(e.mirror, writes)
	e.mirrorHeight, e.mirrorRoot = h, blk.Header.StateRoot
	e.mBlocks.Inc()

	if cert != nil {
		e.certs[hash] = cert
		return e.snapshotIfDueLocked(h)
	}
	return nil
}

// snapshotIfDueLocked takes the periodic snapshot when the certificate that
// has just been journaled is for a multiple-of-SnapshotEvery height. The
// image is the mirror's, which stands above that height when blocks are
// journaled ahead of their certificates; should a crash then lose the
// uncertified blocks, recoverState finds the image above the recovered tip,
// discards it, and the caller replays.
func (e *Engine) snapshotIfDueLocked(certified uint64) error {
	if certified%e.snapshotEvery != 0 {
		return nil
	}
	return e.snapshotLocked()
}

// ApplyCert persists a certificate for an already-persisted block: the
// mining routine journals a block first and its certificate when it lands,
// and issuer catch-up re-certifies blocks long journaled.
func (e *Engine) ApplyCert(blockHash chash.Hash, cert *core.Certificate) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.certs[blockHash]; ok {
		return nil
	}
	height, ok := e.heights[blockHash]
	if !ok {
		return fmt.Errorf("storage: certificate for unknown block %x", blockHash[:8])
	}
	if err := e.appendCertLocked(blockHash, cert); err != nil {
		return err
	}
	e.certs[blockHash] = cert
	return e.snapshotIfDueLocked(height)
}

func (e *Engine) appendCertLocked(blockHash chash.Hash, cert *core.Certificate) error {
	return e.chainLog.Append(tagCert, encodeCertPayload(blockHash, cert))
}

// RestoreState advances the engine's state mirror during a transaction
// replay resume (used when the snapshot+WAL image did not survive). It
// re-journals each replayed write set so durability is rebuilt as the
// replay proceeds.
func (e *Engine) RestoreState(height uint64, root chash.Hash, writes map[string][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if height != e.mirrorHeight+1 {
		return fmt.Errorf("storage: restore height %d on mirror %d", height, e.mirrorHeight)
	}
	if err := e.stateWAL.Append(tagState, encodeStateRecord(height, root, writes)); err != nil {
		return err
	}
	applyWrites(e.mirror, writes)
	e.mirrorHeight, e.mirrorRoot = height, root
	return nil
}

// resetState re-roots the engine's state mirror and journal at the empty
// genesis image, discarding whatever image recovery produced. Used before a
// full replay re-journals every write set.
func (e *Engine) resetState(genesisRoot chash.Hash) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resetStateLocked(genesisRoot)
}

func (e *Engine) resetStateLocked(genesisRoot chash.Hash) error {
	e.mirror = make(map[string][]byte)
	e.mirrorHeight, e.mirrorRoot = 0, genesisRoot
	e.snapHeight = 0
	if err := e.stateWAL.Reset(); err != nil {
		return err
	}
	return e.snapshotLocked()
}

// snapshotLocked writes the state image durably and resets the WAL. The
// chain log is synced first so the snapshot never claims a height the chain
// could lose.
func (e *Engine) snapshotLocked() error {
	start := time.Now()
	if err := e.chainLog.Sync(); err != nil {
		return err
	}
	if err := e.stateWAL.Sync(); err != nil {
		return err
	}
	img := encodeStateRecord(e.mirrorHeight, e.mirrorRoot, e.mirror)
	if err := writeSnapshot(e.fs, vfs.Join(e.dir, "state", "snap"), img); err != nil {
		return err
	}
	e.snapHeight = e.mirrorHeight
	if err := e.stateWAL.Reset(); err != nil {
		return err
	}
	e.mSnapshots.Inc()
	e.mSnapSecs.Observe(time.Since(start).Seconds())
	return nil
}

// Snapshot forces a state snapshot write now.
func (e *Engine) Snapshot() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

// Recovery returns what Open reconstructed.
func (e *Engine) Recovery() *Recovery { return e.rec }

// TipHeight is the height of the persisted tip.
func (e *Engine) TipHeight() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.blocks) == 0 {
		return 0
	}
	return e.blocks[len(e.blocks)-1].Header.Height
}

// BlockAt returns the persisted block at a height.
func (e *Engine) BlockAt(height uint64) (*chain.Block, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if height >= uint64(len(e.blocks)) {
		return nil, false
	}
	return e.blocks[height], true
}

// CertFor returns the persisted certificate for a block hash.
func (e *Engine) CertFor(blockHash chash.Hash) (*core.Certificate, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.certs[blockHash]
	return c, ok
}

// Sync forces both logs to stable storage (a durability barrier).
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.chainLog.Sync(); err != nil {
		return err
	}
	return e.stateWAL.Sync()
}

// Close syncs, snapshots (so the next open is instant), and closes the
// engine. Safe to call once.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var firstErr error
	if len(e.blocks) > 0 && e.mirrorHeight > e.snapHeight {
		if err := e.snapshotLocked(); err != nil {
			firstErr = err
		}
	}
	if err := e.chainLog.Close(); firstErr == nil && err != nil {
		firstErr = err
	}
	if err := e.stateWAL.Close(); firstErr == nil && err != nil {
		firstErr = err
	}
	return firstErr
}

// Instrument registers the engine's metrics and its logs' counters.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.mBlocks = reg.Counter("dcert_storage_blocks_total",
		"Blocks persisted to the durable chain log.")
	e.mSnapshots = reg.Counter("dcert_storage_snapshots_total",
		"State snapshots written (WAL resets).")
	e.mSnapSecs = reg.Histogram("dcert_storage_snapshot_seconds",
		"Wall time per state snapshot.", obs.DefBuckets)
	e.chainLog.instrument(reg, "chain")
	e.stateWAL.instrument(reg, "wal")
	reg.Gauge("dcert_storage_recovered_height",
		"Chain height recovered from disk at open.").Set(int64(e.rec.TipHeight()))
	reg.Gauge("dcert_storage_recovery_millis",
		"Wall time of the last disk recovery in milliseconds.").Set(e.rec.Elapsed.Milliseconds())
	reg.Gauge("dcert_storage_recovery_truncated_bytes",
		"Bytes truncated from torn/corrupt log tails at last recovery.").Set(e.rec.TruncatedBytes)
}

// --- state record codec ---

// encodeStateRecord frames one WAL entry (height, post-state root, writes);
// a state snapshot is the same record over the full image.
func encodeStateRecord(height uint64, root chash.Hash, writes map[string][]byte) []byte {
	size := 16 + chash.Size
	for k, v := range writes {
		size += 16 + len(k) + len(v)
	}
	enc := chash.NewEncoder(size)
	enc.PutUint64(height)
	enc.PutHash(root)
	enc.PutUint64(uint64(len(writes)))
	for k, v := range writes {
		enc.PutString(k)
		enc.PutBytes(v)
	}
	return enc.Bytes()
}

func decodeStateRecord(payload []byte) (uint64, chash.Hash, map[string][]byte, error) {
	d := chash.NewDecoder(payload)
	height, err := d.Uint64()
	if err != nil {
		return 0, chash.Hash{}, nil, err
	}
	root, err := d.ReadHash()
	if err != nil {
		return 0, chash.Hash{}, nil, err
	}
	n, err := d.Uint64()
	if err != nil {
		return 0, chash.Hash{}, nil, err
	}
	// Each entry carries at least its two length prefixes, so a count the
	// remaining bytes cannot hold is refused before it sizes an allocation.
	if n > uint64(d.Remaining())/8 {
		return 0, chash.Hash{}, nil, fmt.Errorf("%w: %d state writes in %d bytes", ErrCorrupt, n, d.Remaining())
	}
	writes := make(map[string][]byte, n)
	for i := uint64(0); i < n; i++ {
		k, err := d.ReadString()
		if err != nil {
			return 0, chash.Hash{}, nil, err
		}
		v, err := d.ReadBytes()
		if err != nil {
			return 0, chash.Hash{}, nil, err
		}
		if _, dup := writes[k]; dup {
			return 0, chash.Hash{}, nil, fmt.Errorf("%w: state write %q repeated", ErrCorrupt, k)
		}
		writes[k] = v
	}
	if err := d.Finish(); err != nil {
		return 0, chash.Hash{}, nil, err
	}
	return height, root, writes, nil
}

// applyWrites merges a write set into a state image (nil value = delete,
// matching statedb.Commit semantics).
func applyWrites(img map[string][]byte, writes map[string][]byte) {
	for k, v := range writes {
		if v == nil {
			delete(img, k)
			continue
		}
		img[k] = append([]byte(nil), v...)
	}
}

// copyImage deep-copies a state image.
func copyImage(img map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(img))
	for k, v := range img {
		out[k] = append([]byte(nil), v...)
	}
	return out
}
