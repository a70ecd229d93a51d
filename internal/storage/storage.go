// Package storage persists the canonical chain and its DCert certificates.
//
// Engine (engine.go) is the crash-safe data directory a durable deployment
// appends to: a segment log of blocks and certificates plus a state
// snapshot/WAL. The segment log is the one on-disk chain format; the newest
// certificate on it is the only restart record a certificate issuer needs,
// since the certificate at height h recursively attests the chain below it.
// Every record uses the CRC32C framing defined in seglog.go, so a torn or
// bit-flipped record is detected rather than replayed.
package storage

import (
	"errors"
	"fmt"

	"dcert/internal/chash"
	"dcert/internal/core"
)

// ErrCorrupt is returned when a record or snapshot fails structural
// validation.
var ErrCorrupt = errors.New("storage: corrupt record")

// Chain-log record tags.
const (
	tagBlock byte = 1
	tagCert  byte = 2
)

// maxRecord bounds any single record (a block with thousands of
// transactions stays far below this).
const maxRecord = 256 << 20

// encodeCertPayload frames a certificate record body.
func encodeCertPayload(blockHash chash.Hash, cert *core.Certificate) []byte {
	certRaw := cert.Marshal()
	e := chash.NewEncoder(8 + chash.Size + len(certRaw))
	e.PutHash(blockHash)
	e.PutBytes(certRaw)
	return e.Bytes()
}

// decodeCertPayload parses a certificate record body.
func decodeCertPayload(payload []byte) (chash.Hash, *core.Certificate, error) {
	d := chash.NewDecoder(payload)
	h, err := d.ReadHash()
	if err != nil {
		return chash.Hash{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	certRaw, err := d.ReadBytes()
	if err != nil {
		return chash.Hash{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := d.Finish(); err != nil {
		return chash.Hash{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	cert, err := core.UnmarshalCertificate(certRaw)
	if err != nil {
		return chash.Hash{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return h, cert, nil
}
