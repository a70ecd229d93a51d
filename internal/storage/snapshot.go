package storage

import (
	"encoding/binary"
	"fmt"
	"os"

	"dcert/internal/chash"
	"dcert/internal/storage/vfs"
)

// Snapshots are single-shot durable files (the state image) written with
// the classic atomic-replace discipline: write to a temp path, fsync, close,
// rename over the target. A reader therefore sees either the old complete
// snapshot or the new complete snapshot, never a partial write. A CRC32C
// header catches bit rot and torn tmp files that a power cut promoted
// anyway.
//
// Layout (big-endian): [4B magic][4B CRC32C of payload][8B payload len][payload]

// snapMagic marks a snapshot file.
const snapMagic = 0x44435334 // "DCS4"

// snapHeaderSize is the snapshot header length.
const snapHeaderSize = 16

// writeSnapshot atomically replaces path with a CRC-framed payload.
func writeSnapshot(fs vfs.FS, path string, payload []byte) error {
	tmp := path + ".tmp"
	buf := make([]byte, snapHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], snapMagic)
	binary.BigEndian.PutUint32(buf[4:8], chash.Checksum(payload))
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	copy(buf[snapHeaderSize:], payload)

	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: snapshot %s: %w", path, err)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: snapshot %s: %w", path, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: snapshot %s: %w", path, err)
	}
	return nil
}

// readSnapshot loads and verifies a snapshot. A missing file returns
// os.ErrNotExist; a structurally damaged one returns ErrCorrupt (the
// caller falls back to slower recovery, it does not fail the open).
func readSnapshot(fs vfs.FS, path string) ([]byte, error) {
	if !vfs.Exists(fs, path) {
		return nil, os.ErrNotExist
	}
	raw, err := vfs.ReadFile(fs, path)
	if err != nil {
		return nil, fmt.Errorf("storage: snapshot %s: %w", path, err)
	}
	if len(raw) < snapHeaderSize {
		return nil, fmt.Errorf("%w: snapshot %s truncated header", ErrCorrupt, path)
	}
	if binary.BigEndian.Uint32(raw[0:4]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot %s bad magic", ErrCorrupt, path)
	}
	plen := binary.BigEndian.Uint64(raw[8:16])
	if plen > maxRecord || int(plen) != len(raw)-snapHeaderSize {
		return nil, fmt.Errorf("%w: snapshot %s truncated payload", ErrCorrupt, path)
	}
	payload := raw[snapHeaderSize:]
	if chash.Checksum(payload) != binary.BigEndian.Uint32(raw[4:8]) {
		return nil, fmt.Errorf("%w: snapshot %s checksum", ErrCorrupt, path)
	}
	return payload, nil
}
