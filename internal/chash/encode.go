package chash

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding errors.
var (
	// ErrTruncated is returned when a decoder runs out of input.
	ErrTruncated = errors.New("chash: truncated input")
	// ErrOversized is returned when a length prefix or an element count
	// exceeds the decoder limit.
	ErrOversized = errors.New("chash: length prefix exceeds limit")
)

// maxChunk bounds any single length-prefixed chunk to guard decoders against
// hostile length prefixes. 64 MiB is far above any legitimate DCert payload.
const maxChunk = 64 << 20

// Encoder builds canonical length-prefixed binary encodings. It is the single
// wire format used for blocks, certificates, proofs, and network messages, so
// that every hashed preimage is unambiguous.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The buffer is owned by the encoder; copy
// it if it must outlive further Put calls.
func (e *Encoder) Bytes() []byte {
	return e.buf
}

// PutUint64 appends a big-endian uint64.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutUint32 appends a big-endian uint32.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutByte appends a single byte.
func (e *Encoder) PutByte(b byte) {
	e.buf = append(e.buf, b)
}

// PutBool appends a boolean as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
		return
	}
	e.buf = append(e.buf, 0)
}

// PutHash appends a fixed-size digest (no length prefix).
func (e *Encoder) PutHash(h Hash) {
	e.buf = append(e.buf, h[:]...)
}

// PutBytes appends a uint32 length prefix followed by the bytes.
func (e *Encoder) PutBytes(b []byte) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString appends a length-prefixed UTF-8 string.
func (e *Encoder) PutString(s string) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads the format produced by Encoder.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps the given buffer. The decoder does not copy; the caller
// must not mutate buf while decoding.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Remaining reports how many bytes are left to decode.
func (d *Decoder) Remaining() int {
	return len(d.buf) - d.off
}

// Count reads a uint32 element count from untrusted input. It returns the
// count only if it is at most limit and count elements of minSize encoded
// bytes each fit in the bytes left, so a lying count is refused before it
// sizes an allocation. Decoders size allocations from a count only through
// Count or Count64 (TestCountsGoThroughTheHelper enforces it). A minSize of
// 0 applies limit alone, for elements packed below one byte each.
func (d *Decoder) Count(limit, minSize int) (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return d.bound(uint64(n), limit, minSize)
}

// Count64 is Count over a uint64 count prefix.
func (d *Decoder) Count64(limit, minSize int) (int, error) {
	n, err := d.Uint64()
	if err != nil {
		return 0, err
	}
	return d.bound(n, limit, minSize)
}

func (d *Decoder) bound(n uint64, limit, minSize int) (int, error) {
	if n > uint64(limit) {
		return 0, fmt.Errorf("%w: count %d beyond %d", ErrOversized, n, limit)
	}
	if minSize > 0 && n > uint64(d.Remaining()/minSize) {
		return 0, fmt.Errorf("%w: count %d in %d bytes", ErrOversized, n, d.Remaining())
	}
	return int(n), nil
}

// Finish returns an error unless the decoder consumed exactly all input.
// Canonical decoders must call it so that trailing garbage is rejected.
func (d *Decoder) Finish() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("chash: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if d.Remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, d.Remaining())
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out, nil
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Byte reads a single byte.
func (d *Decoder) Byte() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Bool reads a one-byte boolean, rejecting non-canonical values.
func (d *Decoder) Bool() (bool, error) {
	b, err := d.Byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("chash: non-canonical bool byte 0x%02x", b)
	}
}

// ReadHash reads a fixed-size digest.
func (d *Decoder) ReadHash() (Hash, error) {
	b, err := d.take(Size)
	if err != nil {
		return Zero, err
	}
	var h Hash
	copy(h[:], b)
	return h, nil
}

// ReadBytes reads a length-prefixed byte slice. The returned slice is a copy.
func (d *Decoder) ReadBytes() ([]byte, error) {
	b, err := d.ReadBytesShared()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// ReadBytesShared reads a length-prefixed byte slice without copying it: the
// result aliases the decoder's buffer. Use it only on a buffer nothing else
// writes to afterwards (a network frame allocated for this one message).
func (d *Decoder) ReadBytesShared() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxChunk {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversized, n)
	}
	return d.take(int(n))
}

// ReadString reads a length-prefixed string.
func (d *Decoder) ReadString() (string, error) {
	b, err := d.ReadBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}
