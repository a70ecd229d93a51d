package storage

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcert/internal/chash"
	"dcert/internal/obs"
	"dcert/internal/storage/vfs"
)

// The segment log is the engine's durable primitive: an append-only,
// CRC32C-framed record log split across fixed-size segment files, with
// group-commit fsync batching and a tail-repairing opener.
//
// Each record is one chash record frame whose body is a 1-byte tag and the
// payload, at most maxRecord bytes. A frame is written in a single Write
// call; durability follows from the log's fsync policy, not from the write.
// On open the log scans every segment in order and stops at the first
// structural defect — a torn length/CRC prefix, a body shorter than its
// declared length, a CRC mismatch, or an oversized length — truncates the
// file there, and deletes any later segments: everything past a defect is
// unordered garbage, and recovery promises a *prefix*, never a patchwork.

// segSuffix names segment files: 00000001.seg, 00000002.seg, ...
const segSuffix = ".seg"

// framePos locates one frame in a log: its segment, the byte offset of its
// first header byte within that segment, and its size including the header.
type framePos struct {
	seg  int
	off  int64
	size int
}

// end is the offset just past the frame.
func (p framePos) end() int64 { return p.off + int64(p.size) }

// LogOptions tunes a segment log.
type LogOptions struct {
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB).
	SegmentBytes int64
	// FsyncInterval batches fsyncs: 0 syncs after every append (each
	// record durable before Append returns); >0 syncs at most once per
	// interval, so a crash may lose the last interval's worth of appends —
	// but never corrupt what came before.
	FsyncInterval time.Duration
}

func (o LogOptions) withDefaults() LogOptions {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// LogRecovery describes what the opener found and repaired.
type LogRecovery struct {
	// Records is the number of valid records in the log after repair.
	Records int
	// Bytes is the valid byte size across segments after repair.
	Bytes int64
	// TruncatedBytes counts bytes cut from the tail (torn or corrupt).
	TruncatedBytes int64
	// DroppedSegments counts whole segments deleted past a defect.
	DroppedSegments int
	// Torn reports whether any repair happened at all.
	Torn bool
}

// logMetrics are the log's nil-safe instrumentation hooks.
type logMetrics struct {
	appends  *obs.Counter
	bytes    *obs.Counter
	fsyncs   *obs.Counter
	fsyncSec *obs.Histogram
	segments *obs.Gauge
}

// Log is an append-only CRC-framed segment log.
//
// Log is safe for concurrent use.
type Log struct {
	fs   vfs.FS
	dir  string
	opts LogOptions

	mu       sync.Mutex
	cur      vfs.File // active segment
	curIdx   int      // active segment index
	curSize  int64
	segments []int // all live segment indices, ascending
	dirty    bool
	lastSync time.Time
	met      logMetrics
	rec      LogRecovery
	err      error // the first write or fsync failure, sticky (see Append)
}

// segName renders a segment file name.
func segName(idx int) string {
	return fmt.Sprintf("%08d%s", idx, segSuffix)
}

// parseSegName extracts a segment index, or -1.
func parseSegName(name string) int {
	if !strings.HasSuffix(name, segSuffix) {
		return -1
	}
	idx, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
	if err != nil || idx <= 0 {
		return -1
	}
	return idx
}

// OpenLog opens (creating if needed) the segment log in dir, scanning and
// repairing the tail so appending can resume exactly after the last valid
// record.
func OpenLog(fs vfs.FS, dir string, opts LogOptions) (*Log, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: log dir: %w", err)
	}
	l := &Log{fs: fs, dir: dir, opts: opts.withDefaults(), lastSync: time.Now()}

	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: log dir: %w", err)
	}
	var idxs []int
	for _, name := range names {
		if idx := parseSegName(name); idx > 0 {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)

	if len(idxs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}

	// Scan segments in order. The first defect ends the trustworthy
	// prefix: the defective segment is truncated there, later segments
	// are deleted, and any index gap counts as a defect too (a missing
	// middle segment means everything after it is not a prefix).
	defect := false
	for i, idx := range idxs {
		if defect || (i > 0 && idx != idxs[i-1]+1) {
			if err := fs.Remove(vfs.Join(dir, segName(idx))); err != nil {
				return nil, fmt.Errorf("storage: drop segment %d: %w", idx, err)
			}
			l.rec.DroppedSegments++
			l.rec.Torn = true
			defect = true
			continue
		}
		valid, records, total, err := scanSegment(fs, vfs.Join(dir, segName(idx)))
		if err != nil {
			return nil, err
		}
		l.rec.Records += records
		l.rec.Bytes += valid
		if valid < total {
			if err := truncateSegment(fs, vfs.Join(dir, segName(idx)), valid); err != nil {
				return nil, err
			}
			l.rec.TruncatedBytes += total - valid
			l.rec.Torn = true
			defect = true
		}
		l.segments = append(l.segments, idx)
	}

	last := l.segments[len(l.segments)-1]
	if err := l.openSegment(last); err != nil {
		return nil, err
	}
	l.segments = l.segments[:len(l.segments)-1] // openSegment re-appends
	return l, nil
}

// openSegment opens segment idx for appending and makes it current.
func (l *Log) openSegment(idx int) error {
	f, err := l.fs.OpenFile(vfs.Join(l.dir, segName(idx)), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open segment %d: %w", idx, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: segment %d size: %w", idx, err)
	}
	l.cur, l.curIdx, l.curSize = f, idx, size
	l.segments = append(l.segments, idx)
	l.met.segments.Set(int64(len(l.segments)))
	return nil
}

// Recovery reports what the opener repaired.
func (l *Log) Recovery() LogRecovery {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec
}

// instrument attaches registry metrics under the given log name label.
func (l *Log) instrument(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	label := obs.L("log", name)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = logMetrics{
		appends:  reg.Counter("dcert_storage_appends_total", "records appended", label),
		bytes:    reg.Counter("dcert_storage_bytes_total", "bytes appended (incl. framing)", label),
		fsyncs:   reg.Counter("dcert_storage_fsyncs_total", "fsync calls issued", label),
		fsyncSec: reg.Histogram("dcert_storage_fsync_seconds", "fsync latency", obs.DefBuckets, label),
		segments: reg.Gauge("dcert_storage_segments", "live segment files", label),
	}
	l.met.segments.Set(int64(len(l.segments)))
}

// Append writes one tagged record and applies the fsync policy. With a zero
// FsyncInterval the record is durable when Append returns; otherwise
// durability lags by at most the interval (group commit).
// A write or fsync failure is sticky until the log is reopened: the next open
// cuts a torn frame together with every record behind it, and after a failed
// fsync the page cache cannot be trusted.
func (l *Log) Append(tag byte, payload []byte) error {
	_, err := l.appendPos(tag, payload)
	return err
}

// appendPos is Append that also reports where the frame landed, so that it
// can be read back with readFrame.
func (l *Log) appendPos(tag byte, payload []byte) (framePos, error) {
	if len(payload)+1 > maxRecord {
		return framePos{}, fmt.Errorf("storage: append: record of %d bytes exceeds limit", len(payload))
	}
	frame := chash.AppendFrame(make([]byte, 0, chash.FrameHeaderSize+1+len(payload)), []byte{tag}, payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return framePos{}, errors.New("storage: append to closed log")
	}
	if l.err != nil {
		return framePos{}, l.err
	}
	if l.curSize > 0 && l.curSize+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return framePos{}, err
		}
	}
	pos := framePos{seg: l.curIdx, off: l.curSize, size: len(frame)}
	n, err := l.cur.Write(frame)
	l.curSize += int64(n)
	if err != nil {
		l.err = fmt.Errorf("storage: append: %w", err)
		return framePos{}, l.err
	}
	l.dirty = true
	l.met.appends.Inc()
	l.met.bytes.Add(uint64(len(frame)))
	if l.opts.FsyncInterval == 0 || time.Since(l.lastSync) >= l.opts.FsyncInterval {
		return pos, l.syncLocked()
	}
	return pos, nil
}

// readFrame reads one frame back from disk, through a read-only handle of
// its own so that appends never wait for it, and checks its CRC.
func (l *Log) readFrame(pos framePos) (tag byte, payload []byte, err error) {
	if pos.size <= chash.FrameHeaderSize || pos.size > chash.FrameHeaderSize+maxRecord {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes", ErrCorrupt, pos.size)
	}
	f, err := l.fs.OpenFile(vfs.Join(l.dir, segName(pos.seg)), os.O_RDONLY, 0)
	if err != nil {
		return 0, nil, fmt.Errorf("storage: read frame: %w", err)
	}
	defer f.Close()
	buf := make([]byte, pos.size)
	if _, err := f.ReadAt(buf, pos.off); err != nil {
		return 0, nil, fmt.Errorf("storage: read frame at %s:%d: %w", segName(pos.seg), pos.off, err)
	}
	body, n, err := chash.DecodeFrame(buf, maxRecord)
	if err != nil || n != len(buf) {
		return 0, nil, fmt.Errorf("%w: frame at %s:%d fails its CRC", ErrCorrupt, segName(pos.seg), pos.off)
	}
	return body[0], body[1:], nil
}

// rotateLocked seals the current segment (fsyncing it) and starts the next.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("storage: rotate: %w", err)
	}
	l.cur = nil
	return l.openSegment(l.curIdx + 1)
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.cur.Sync(); err != nil {
		l.err = fmt.Errorf("storage: fsync: %w", err)
		return l.err
	}
	l.met.fsyncs.Inc()
	l.met.fsyncSec.Observe(time.Since(start).Seconds())
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Scan replays every valid record in order. It reads from disk (not from a
// cache), so it sees exactly what a recovery would.
func (l *Log) Scan(fn func(tag byte, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]int(nil), l.segments...)
	dir := l.dir
	fs := l.fs
	l.mu.Unlock()
	for _, idx := range segs {
		if err := scanRecords(fs, vfs.Join(dir, segName(idx)), fn); err != nil {
			return err
		}
	}
	return nil
}

// scanPos is Scan with each record's position in the log.
func (l *Log) scanPos(fn func(tag byte, payload []byte, pos framePos) error) error {
	l.mu.Lock()
	segs := append([]int(nil), l.segments...)
	dir := l.dir
	fs := l.fs
	l.mu.Unlock()
	for _, idx := range segs {
		raw, err := vfs.ReadFile(fs, vfs.Join(dir, segName(idx)))
		if err != nil {
			return fmt.Errorf("storage: scan %s: %w", segName(idx), err)
		}
		off := 0
		for {
			body, n, err := chash.DecodeFrame(raw[off:], maxRecord)
			if err != nil {
				break
			}
			pos := framePos{seg: idx, off: int64(off), size: n}
			off += n
			if err := fn(body[0], body[1:], pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateTail cuts the log back to (seg, end): segment seg keeps its first
// end bytes, later segments are deleted, and appending resumes at the cut.
// Used by recovery to discard records past the certified prefix, so a later
// session can never append a height the log already holds.
func (l *Log) TruncateTail(seg int, end int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("storage: truncate tail: %w", err)
		}
		l.cur = nil
	}
	var kept []int
	for _, idx := range l.segments {
		switch {
		case idx < seg:
			kept = append(kept, idx)
		case idx == seg:
			if err := truncateSegment(l.fs, vfs.Join(l.dir, segName(idx)), end); err != nil {
				return err
			}
			kept = append(kept, idx)
		default:
			if err := l.fs.Remove(vfs.Join(l.dir, segName(idx))); err != nil {
				return fmt.Errorf("storage: truncate tail: %w", err)
			}
		}
	}
	if len(kept) == 0 || kept[len(kept)-1] != seg {
		return fmt.Errorf("storage: truncate tail: segment %d not in log", seg)
	}
	l.segments = kept[:len(kept)-1]
	l.dirty = false
	return l.openSegment(seg)
}

// Size returns the total valid byte size across segments.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var size int64
	for _, idx := range l.segments {
		if idx == l.curIdx {
			size += l.curSize
			continue
		}
		if info, err := l.fs.Stat(vfs.Join(l.dir, segName(idx))); err == nil {
			size += info.Size()
		}
	}
	return size
}

// Reset deletes every segment and starts the log over (used after a state
// snapshot makes the old WAL obsolete).
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("storage: reset: %w", err)
		}
		l.cur = nil
	}
	for _, idx := range l.segments {
		if err := l.fs.Remove(vfs.Join(l.dir, segName(idx))); err != nil {
			return fmt.Errorf("storage: reset: %w", err)
		}
	}
	l.segments = nil
	l.dirty = false
	return l.openSegment(1)
}

// Close syncs and closes the log. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

// scanSegment validates a segment's frames, returning the valid prefix
// length, the record count within it, and the file's total size.
func scanSegment(fs vfs.FS, path string) (valid int64, records int, total int64, err error) {
	raw, err := vfs.ReadFile(fs, path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("storage: scan %s: %w", path, err)
	}
	total = int64(len(raw))
	off := 0
	for {
		_, n, err := chash.DecodeFrame(raw[off:], maxRecord)
		if err != nil {
			break
		}
		off += n
		records++
	}
	return int64(off), records, total, nil
}

// scanRecords streams a segment's valid records to fn.
func scanRecords(fs vfs.FS, path string, fn func(tag byte, payload []byte) error) error {
	raw, err := vfs.ReadFile(fs, path)
	if err != nil {
		return fmt.Errorf("storage: scan %s: %w", path, err)
	}
	off := 0
	for {
		body, n, err := chash.DecodeFrame(raw[off:], maxRecord)
		if err != nil {
			return nil
		}
		if err := fn(body[0], body[1:]); err != nil {
			return err
		}
		off += n
	}
}

// truncateSegment cuts a segment to its valid prefix and fsyncs the repair.
func truncateSegment(fs vfs.FS, path string, size int64) error {
	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: truncate %s: %w", path, err)
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: truncate %s: %w", path, err)
	}
	return nil
}
