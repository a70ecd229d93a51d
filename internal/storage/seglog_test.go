package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcert/internal/storage/vfs"
)

// collect replays a log into (tag, payload) pairs.
func collect(t *testing.T, l *Log) []struct {
	tag     byte
	payload []byte
} {
	t.Helper()
	var out []struct {
		tag     byte
		payload []byte
	}
	err := l.Scan(func(tag byte, payload []byte) error {
		out = append(out, struct {
			tag     byte
			payload []byte
		}{tag, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(vfs.OS{}, dir, LogOptions{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(byte(1+i%3), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, err = OpenLog(vfs.OS{}, dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if rec := l.Recovery(); rec.Torn || rec.Records != 20 {
		t.Fatalf("recovery = %+v, want 20 clean records", rec)
	}
	got := collect(t, l)
	for i, r := range got {
		want := fmt.Sprintf("record-%d", i)
		if string(r.payload) != want || r.tag != byte(1+i%3) {
			t.Fatalf("record %d = tag %d %q", i, r.tag, r.payload)
		}
	}
	// Appending after reopen resumes exactly after the last record.
	if err := l.Append(9, []byte("after-reopen")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := collect(t, l); len(got) != 21 || string(got[20].payload) != "after-reopen" {
		t.Fatalf("post-reopen log has %d records", len(got))
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(vfs.OS{}, dir, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 12; i++ {
		if err := l.Append(1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(names) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(names))
	}
	l, err = OpenLog(vfs.OS{}, dir, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != 12 {
		t.Fatalf("recovered %d records across segments, want 12", len(got))
	}
}

func TestLogGroupCommitLagsDurability(t *testing.T) {
	dir := t.TempDir()
	base := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{})
	l, err := OpenLog(base, dir, LogOptions{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(1, []byte("unsynced")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// No sync has happened (interval far away): a power cut loses them all.
	if err := base.PowerCut(); err != nil {
		t.Fatalf("PowerCut: %v", err)
	}
	l2, err := OpenLog(vfs.OS{}, dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 0 {
		t.Fatalf("un-synced records survived a power cut: %d", len(got))
	}

	// With explicit Sync, the same records survive.
	dir2 := t.TempDir()
	base2 := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{})
	l3, err := OpenLog(base2, dir2, LogOptions{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := l3.Append(1, []byte("synced")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l3.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := base2.PowerCut(); err != nil {
		t.Fatalf("PowerCut: %v", err)
	}
	l4, err := OpenLog(vfs.OS{}, dir2, LogOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l4.Close()
	if got := collect(t, l4); len(got) != 5 {
		t.Fatalf("synced records lost: %d/5", len(got))
	}
}

// TestLogTailCorruption drives the opener through the corruption taxonomy:
// each case damages a freshly written log and recovery must keep exactly
// the records before the damage — never a corrupt one.
func TestLogTailCorruption(t *testing.T) {
	const records = 8
	write := func(t *testing.T) string {
		dir := t.TempDir()
		l, err := OpenLog(vfs.OS{}, dir, LogOptions{})
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		for i := 0; i < records; i++ {
			if err := l.Append(1, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return dir
	}
	segPath := func(dir string) string { return filepath.Join(dir, segName(1)) }
	frameLen := frameHeaderSize + 1 + len("payload-00")

	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
		keep   int // records surviving recovery
	}{
		{
			name: "truncated tail mid-frame",
			damage: func(t *testing.T, path string) {
				raw, _ := os.ReadFile(path)
				os.WriteFile(path, raw[:len(raw)-5], 0o644)
			},
			keep: records - 1,
		},
		{
			name: "truncated inside header",
			damage: func(t *testing.T, path string) {
				raw, _ := os.ReadFile(path)
				os.WriteFile(path, raw[:len(raw)-frameLen+3], 0o644)
			},
			keep: records - 1,
		},
		{
			name: "flipped payload byte in last frame",
			damage: func(t *testing.T, path string) {
				raw, _ := os.ReadFile(path)
				raw[len(raw)-2] ^= 0xFF
				os.WriteFile(path, raw, 0o644)
			},
			keep: records - 1,
		},
		{
			name: "flipped byte mid-log cuts everything after",
			damage: func(t *testing.T, path string) {
				raw, _ := os.ReadFile(path)
				raw[3*frameLen+frameHeaderSize] ^= 0x01
				os.WriteFile(path, raw, 0o644)
			},
			keep: 3,
		},
		{
			name: "oversized length field",
			damage: func(t *testing.T, path string) {
				raw, _ := os.ReadFile(path)
				binary.BigEndian.PutUint32(raw[(records-1)*frameLen:], maxRecord+1)
				os.WriteFile(path, raw, 0o644)
			},
			keep: records - 1,
		},
		{
			name: "zero length field",
			damage: func(t *testing.T, path string) {
				raw, _ := os.ReadFile(path)
				binary.BigEndian.PutUint32(raw[(records-1)*frameLen:], 0)
				os.WriteFile(path, raw, 0o644)
			},
			keep: records - 1,
		},
		{
			name: "garbage appended after valid records",
			damage: func(t *testing.T, path string) {
				f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
				f.Close()
			},
			keep: records,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := write(t)
			tc.damage(t, segPath(dir))
			l, err := OpenLog(vfs.OS{}, dir, LogOptions{})
			if err != nil {
				t.Fatalf("OpenLog after damage: %v", err)
			}
			defer l.Close()
			rec := l.Recovery()
			if !rec.Torn {
				t.Fatal("recovery must report the repair")
			}
			got := collect(t, l)
			if len(got) != tc.keep {
				t.Fatalf("recovered %d records, want %d", len(got), tc.keep)
			}
			for i, r := range got {
				want := fmt.Sprintf("payload-%02d", i)
				if string(r.payload) != want {
					t.Fatalf("record %d = %q, want %q (corrupt record served)", i, r.payload, want)
				}
			}
			// The file was physically repaired: appending then reopening
			// yields the kept records plus the new one.
			if err := l.Append(2, []byte("appended-after-repair")); err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2, err := OpenLog(vfs.OS{}, dir, LogOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			got2 := collect(t, l2)
			if len(got2) != tc.keep+1 || string(got2[tc.keep].payload) != "appended-after-repair" {
				t.Fatalf("post-repair append not recovered: %d records", len(got2))
			}
		})
	}
}

func TestLogDropsSegmentsPastDefect(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(vfs.OS{}, dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 30)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the second segment: segments 3+ must be dropped entirely.
	path := filepath.Join(dir, segName(2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[frameHeaderSize] ^= 0x55
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	l, err = OpenLog(vfs.OS{}, dir, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	rec := l.Recovery()
	if !rec.Torn || rec.DroppedSegments == 0 {
		t.Fatalf("recovery = %+v, want dropped segments", rec)
	}
	got := collect(t, l)
	if len(got) != 1 {
		t.Fatalf("recovered %d records, want 1 (first segment only)", len(got))
	}
}

func TestLogTruncateTailAndReset(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(vfs.OS{}, dir, LogOptions{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	type pos struct {
		seg int
		end int64
	}
	var positions []pos
	for i := 0; i < 6; i++ {
		if err := l.Append(1, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	err = l.scanPos(func(tag byte, payload []byte, seg int, end int64) error {
		positions = append(positions, pos{seg, end})
		return nil
	})
	if err != nil {
		t.Fatalf("scanPos: %v", err)
	}
	if err := l.TruncateTail(positions[2].seg, positions[2].end); err != nil {
		t.Fatalf("TruncateTail: %v", err)
	}
	if got := collect(t, l); len(got) != 3 {
		t.Fatalf("after TruncateTail: %d records, want 3", len(got))
	}
	if err := l.Append(1, []byte("new")); err != nil {
		t.Fatalf("Append after truncate: %v", err)
	}
	if got := collect(t, l); len(got) != 4 || string(got[3].payload) != "new" {
		t.Fatalf("append after truncate failed: %d", len(got))
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("after Reset: %d records", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// FuzzFrameRecovery fuzzes the record-framing scanner: whatever bytes land
// in a segment file, the opener must never serve a record that was not
// appended intact, never crash, and always leave a file it can reopen.
func FuzzFrameRecovery(f *testing.F) {
	valid := buildFrame(1, []byte("seed-record"))
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid[:5]...))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw, 0o644); err != nil {
			t.Skip()
		}
		l, err := OpenLog(vfs.OS{}, dir, LogOptions{})
		if err != nil {
			t.Fatalf("OpenLog on fuzzed input: %v", err)
		}
		// Every surviving record must re-verify its own CRC framing.
		var n int
		err = l.Scan(func(tag byte, payload []byte) error {
			frame := buildFrame(tag, payload)
			if size, ok := nextFrame(frame); !ok || size != len(frame) {
				t.Fatalf("served record fails its own framing")
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		// The repaired log must append and reopen cleanly.
		if err := l.Append(7, []byte("post-fuzz")); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, err := OpenLog(vfs.OS{}, dir, LogOptions{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		var m int
		if err := l2.Scan(func(byte, []byte) error { m++; return nil }); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if m != n+1 {
			t.Fatalf("reopen lost records: %d != %d+1", m, n)
		}
	})
}

// TestLogWriteFailureIsSticky fails the k-th append's write (torn at the
// syscall boundary) or fsync. The failed Append reports it, and so must every
// later Append and Sync: behind a torn frame a record would be cut off at the
// next open after its Append returned nil, and after a failed fsync the page
// cache cannot be trusted. Reopening holds exactly the k-1 records before the
// failure, and appends again.
func TestLogWriteFailureIsSticky(t *testing.T) {
	const k = 4
	cases := []struct {
		name     string
		plan     vfs.FaultPlan
		powerCut bool // the failed fsync's record is lost only with the power
	}{
		{name: "short write", plan: vfs.FaultPlan{ShortWriteOp: k}},
		{name: "failed fsync", plan: vfs.FaultPlan{FailSyncOp: k}, powerCut: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.OS{}, tc.plan)
			l, err := OpenLog(fault, dir, LogOptions{})
			if err != nil {
				t.Fatalf("OpenLog: %v", err)
			}
			for i := 1; i < k; i++ {
				if err := l.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
			}
			if err := l.Append(1, []byte(fmt.Sprintf("record-%d", k))); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Append %d: got %v, want the injected fault", k, err)
			}
			if err := l.Append(1, []byte("behind-the-failure")); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Append %d after the failure: got %v, want the first failure again", k+1, err)
			}
			if err := l.Sync(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Sync after the failure: got %v, want the first failure again", err)
			}
			l.Close()
			if tc.powerCut {
				if err := fault.PowerCut(); err != nil {
					t.Fatalf("PowerCut: %v", err)
				}
			}

			l2, err := OpenLog(vfs.OS{}, dir, LogOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			got := collect(t, l2)
			if len(got) != k-1 {
				t.Fatalf("reopened log holds %d records, want the %d before the failure", len(got), k-1)
			}
			for i, r := range got {
				if want := fmt.Sprintf("record-%d", i+1); string(r.payload) != want {
					t.Fatalf("record %d = %q, want %q", i, r.payload, want)
				}
			}
			if err := l2.Append(1, []byte("after-reopen")); err != nil {
				t.Fatalf("Append after reopen: %v", err)
			}
		})
	}
}
