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
//
// The engine holds the header of every persisted block and where its frame
// sits in the chain log, never the bodies: BlockAt and BlockByHash read a
// block back from the log and check it before they hand it out.
type Engine struct {
	mu sync.Mutex

	fs  vfs.FS
	dir string

	chainLog *Log
	stateWAL *Log

	snapshotEvery uint64

	// Index of the persisted chain, height-indexed (0 = genesis): each
	// block's header and the position of its frame in the chain log.
	headers []*chain.Header
	frames  []framePos
	heights map[chash.Hash]uint64 // block hash → height, for every block in headers
	// The newest journaled certificate, which attests the whole chain up to
	// certHeight (the block it is journaled against): the one kept.
	tipCert    *core.Certificate
	certHeight uint64

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
	// Headers are the headers of the recovered certified prefix, including
	// genesis. Empty for a fresh data directory. The bodies stay on the
	// chain log: Engine.BlockAt reads one back.
	Headers []*chain.Header
	// TipCert is the certificate journaled against the recovered tip (nil
	// at genesis): the issuer's restart record, and the one certificate
	// recovery keeps, since it attests every block below it.
	TipCert *core.Certificate
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
	if len(r.Headers) == 0 {
		return 0
	}
	return r.Headers[len(r.Headers)-1].Height
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
// A block record keeps its header only: recovery decodes every block frame,
// but no body outlives the scan. A certificate record keeps the height of
// its block.
type chainRecord struct {
	tag    byte
	height uint64
	header *chain.Header // block records
	hash   chash.Hash    // block records
	pos    framePos
	keep   bool
}

// recover reconstructs the certified prefix from the chain log and the state
// image from snapshot+WAL. It physically truncates both logs to exactly what
// it keeps.
func (e *Engine) recover() error {
	rec := &Recovery{}
	chainRec := e.chainLog.Recovery()
	walRec := e.stateWAL.Recovery()
	rec.Torn = chainRec.Torn || walRec.Torn
	rec.TruncatedBytes = chainRec.TruncatedBytes + walRec.TruncatedBytes
	e.rec = rec

	// Pass 1: structurally decode the chain log in append order, stopping at
	// the first anomaly (CRC-valid frames with garbage inside, out-of-order
	// heights, certs for unknown blocks). Everything from the anomaly on is
	// treated like a torn tail. The recursive certificate at height h
	// attests the entire chain below it, so the recovered tip is the highest
	// block that has a certificate on disk.
	var records []*chainRecord
	byHash := make(map[chash.Hash]uint64) // block hash → height
	nextHeight := uint64(0)
	certifiedTip := uint64(0)
	anomaly := false
	err := e.chainLog.scanPos(func(tag byte, payload []byte, pos framePos) error {
		if anomaly {
			return nil
		}
		r := &chainRecord{tag: tag, pos: pos}
		switch tag {
		case tagBlock:
			blk, err := chain.UnmarshalBlock(payload)
			if err != nil || blk.Header.Height != nextHeight {
				anomaly = true
				return nil
			}
			hdr := blk.Header
			r.header, r.hash, r.height = &hdr, blk.Hash(), hdr.Height
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
			r.height = height
			if height > certifiedTip {
				certifiedTip, rec.TipCert = height, cert
			}
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

	// Pass 2: keep the certified prefix. Blocks above it are the
	// un-certified tail the crash made unprovable, and are dropped.
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
			if err := e.chainLog.TruncateTail(records[lastKeep].pos.seg, records[lastKeep].pos.end()); err != nil {
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
		if r.tag == tagBlock {
			e.headers = append(e.headers, r.header)
			e.frames = append(e.frames, r.pos)
			e.heights[r.hash] = r.height
		}
	}
	rec.DroppedBlocks += len(records) - 1 - lastKeep
	rec.Headers = e.headers
	e.tipCert, e.certHeight = rec.TipCert, certifiedTip

	// State: snapshot first, then WAL records on top, capped at the
	// recovered tip. A snapshot ahead of the recovered chain (tail was
	// dropped after the snapshot was cut) is unusable.
	if err := e.recoverState(certifiedTip); err != nil {
		return err
	}
	return nil
}

// rewriteChainLog rebuilds the chain log from the kept records' frames —
// the slow path for recoveries where dropped blocks interleave with kept
// certificates (e.g. a crash during issuer catch-up re-certification). Each
// kept record's position is updated to where its frame now sits. Unlike the
// rest of recovery it holds bodies: every kept frame is buffered between
// reading the old log and resetting it, so its peak memory is the kept log.
func (e *Engine) rewriteChainLog(records []*chainRecord) error {
	payloads := make([][]byte, len(records))
	for i, r := range records {
		if !r.keep {
			continue
		}
		_, payload, err := e.chainLog.readFrame(r.pos)
		if err != nil {
			return err
		}
		payloads[i] = payload
	}
	if err := e.chainLog.Reset(); err != nil {
		return err
	}
	for i, r := range records {
		if !r.keep {
			continue
		}
		pos, err := e.chainLog.appendPos(r.tag, payloads[i])
		if err != nil {
			return err
		}
		r.pos = pos
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
	var lastApplied *framePos
	err = e.stateWAL.scanPos(func(tag byte, payload []byte, pos framePos) error {
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
		lastApplied = &pos
		e.rec.WALRecords++
		return nil
	})
	if err != nil {
		return err
	}

	// Cross-check the mirror against the chain's own state commitment; a
	// mismatch means the image cannot be trusted and the caller must replay.
	valid := e.mirrorHeight > 0 &&
		e.mirrorHeight < uint64(len(e.headers)) &&
		e.headers[e.mirrorHeight].StateRoot == e.mirrorRoot
	if len(e.headers) == 0 {
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
		if err := e.stateWAL.TruncateTail(lastApplied.seg, lastApplied.end()); err != nil {
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
	if len(e.headers) == 0 {
		if genesis.Header.Height != 0 {
			return fmt.Errorf("storage: bootstrap block has height %d", genesis.Header.Height)
		}
		pos, err := e.chainLog.appendPos(tagBlock, genesis.Marshal())
		if err != nil {
			return err
		}
		if err := e.chainLog.Sync(); err != nil {
			return err
		}
		e.indexLocked(genesis, genesis.Hash(), pos)
		e.mirror = make(map[string][]byte)
		e.mirrorHeight, e.mirrorRoot = 0, genesis.Header.StateRoot
		return e.snapshotLocked()
	}
	if e.headers[0].Hash() != genesis.Hash() {
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

// ApplyBlock persists a block: the block frame, its certificate frame (when
// present), and the state write set, in that order. The mining path journals
// blocks uncertified; the certificate lands through ApplyCert. Heights at or
// below the persisted tip are ignored; heights beyond tip+1 are an error.
func (e *Engine) ApplyBlock(blk *chain.Block, cert *core.Certificate, writes map[string][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.headers) == 0 {
		return fmt.Errorf("storage: ApplyBlock before Bootstrap")
	}
	tip := e.headers[len(e.headers)-1]
	h := blk.Header.Height
	if h <= tip.Height {
		return nil
	}
	if h != tip.Height+1 || blk.Header.PrevHash != tip.Hash() {
		return fmt.Errorf("storage: non-contiguous block %d on tip %d", h, tip.Height)
	}

	hash := blk.Hash()
	pos, err := e.chainLog.appendPos(tagBlock, blk.Marshal())
	if err != nil {
		return err
	}
	if cert != nil {
		if err := e.chainLog.Append(tagCert, encodeCertPayload(hash, cert)); err != nil {
			return err
		}
	}
	if err := e.stateWAL.Append(tagState, encodeStateRecord(h, blk.Header.StateRoot, writes)); err != nil {
		return err
	}

	e.indexLocked(blk, hash, pos)
	applyWrites(e.mirror, writes)
	e.mirrorHeight, e.mirrorRoot = h, blk.Header.StateRoot
	e.mBlocks.Inc()

	if cert != nil {
		return e.certifiedLocked(h, cert)
	}
	return nil
}

// indexLocked records a block just appended at pos: a copy of its header, so
// that the engine never keeps the block itself, and the frame's position.
func (e *Engine) indexLocked(blk *chain.Block, hash chash.Hash, pos framePos) {
	hdr := blk.Header
	e.headers = append(e.headers, &hdr)
	e.frames = append(e.frames, pos)
	e.heights[hash] = hdr.Height
}

// certifiedLocked makes a just journaled certificate the tip's, and takes
// the periodic snapshot when the certified tip crosses a multiple of
// SnapshotEvery (a K-block segment may skip the multiple itself). The image
// is the mirror's, which may stand above the certified tip; should a crash
// lose those uncertified blocks, recoverState discards it and the caller
// replays.
func (e *Engine) certifiedLocked(height uint64, cert *core.Certificate) error {
	crossed := height/e.snapshotEvery > e.certHeight/e.snapshotEvery
	e.tipCert, e.certHeight = cert, height
	if !crossed {
		return nil
	}
	return e.snapshotLocked()
}

// ApplyCert persists a certificate for an already-persisted block: the
// mining routine journals a block first and its certificate when it lands,
// and issuer catch-up re-certifies blocks long journaled. A certificate at
// or below the certified tip appends nothing: the tip's attests its block.
func (e *Engine) ApplyCert(blockHash chash.Hash, cert *core.Certificate) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	height, ok := e.heights[blockHash]
	if !ok {
		return fmt.Errorf("storage: certificate for unknown block %x", blockHash[:8])
	}
	if height <= e.certHeight {
		return nil
	}
	if err := e.chainLog.Append(tagCert, encodeCertPayload(blockHash, cert)); err != nil {
		return err
	}
	return e.certifiedLocked(height, cert)
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
	if len(e.headers) == 0 {
		return 0
	}
	return e.headers[len(e.headers)-1].Height
}

// BlockAt reads the persisted block at a height back from the chain log.
// The block is checked before it is returned: the frame's CRC, then its
// header's hash against the header recorded when the block was written or
// recovered, then its transactions against that header's tx root. A block
// that fails any check is refused with ErrCorrupt, never served.
func (e *Engine) BlockAt(height uint64) (*chain.Block, error) {
	e.mu.Lock()
	if height >= uint64(len(e.headers)) {
		tip := len(e.headers) - 1
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: height %d beyond persisted tip %d", chain.ErrNotFound, height, tip)
	}
	want, pos := e.headers[height], e.frames[height]
	e.mu.Unlock()

	tag, payload, err := e.chainLog.readFrame(pos)
	if err != nil {
		return nil, fmt.Errorf("storage: block %d: %w", height, err)
	}
	if tag != tagBlock {
		return nil, fmt.Errorf("%w: record of block %d has tag %d", ErrCorrupt, height, tag)
	}
	blk, err := chain.UnmarshalBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, height, err)
	}
	if blk.Hash() != want.Hash() {
		return nil, fmt.Errorf("%w: block %d does not hash to its recorded header", ErrCorrupt, height)
	}
	if err := blk.VerifyTxRoot(); err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, height, err)
	}
	return blk, nil
}

// BlockByHash reads a persisted block back by its hash, with BlockAt's
// checks. It makes the engine the body source of a durable node's
// chain.Store.
func (e *Engine) BlockByHash(h chash.Hash) (*chain.Block, error) {
	e.mu.Lock()
	height, ok := e.heights[h]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s is not on the chain log", chain.ErrNotFound, h)
	}
	return e.BlockAt(height)
}

// CertifiedTip returns the newest journaled certificate and the height of
// the block it is journaled against (nil and 0 before the first).
func (e *Engine) CertifiedTip() (*core.Certificate, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tipCert, e.certHeight
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
	if len(e.headers) > 0 && e.mirrorHeight > e.snapHeight {
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
	n, err := d.Count64(maxRecord, 8)
	if err != nil {
		return 0, chash.Hash{}, nil, fmt.Errorf("%w: state writes: %v", ErrCorrupt, err)
	}
	writes := make(map[string][]byte, n)
	for range n {
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
