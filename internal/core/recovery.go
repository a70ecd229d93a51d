package core

import (
	"errors"
	"fmt"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/enclave"
	"dcert/internal/node"
)

// Issuer crash/restart recovery. A CI that dies loses its enclave (the
// sealed key is gone for good), but the untrusted host keeps the chain
// replica and the certificates on its chain log. Because cert_verify_t
// checks certificates against the enclave *measurement* — not the signing
// key — a fresh enclave running the same trusted program can verify its
// predecessor's certificate and continue the recursion from there: no
// re-certification from genesis, ever. The certificate of the replica's tip
// recursively attests everything below it, so it is the whole restart
// record. It is untrusted input, so ResumeIssuer re-verifies it through the
// full attestation chain before adopting it.

// Recovery errors.
var (
	// ErrBadCheckpoint is returned when a restart certificate fails
	// validation against the node's tip or the attestation chain.
	ErrBadCheckpoint = errors.New("core: bad issuer checkpoint")
)

// ResumeIssuer restarts a crashed CI on its surviving full-node replica: a
// new enclave (fresh sealed key, fresh attestation report, same measured
// program) adopts tipCert as the base of its recursive chain and continues
// certifying from the node's tip — never from genesis.
//
// tipCert must certify a segment ending at the node's current tip, and it
// must verify through the complete attestation chain (it may have been
// issued by any enclave running the same trusted program, including the
// crashed predecessor). A nil tipCert is only valid at genesis, where plain
// initialization suffices.
func ResumeIssuer(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel, tipCert *Certificate) (*Issuer, error) {
	tip := n.Tip()
	if tipCert == nil {
		if tip.Header.Height != 0 {
			return nil, fmt.Errorf("%w: no certificate with tip at height %d", ErrBadCheckpoint, tip.Header.Height)
		}
		return NewIssuer(n, authority, platform, cost)
	}
	// The certificate came from untrusted storage: verify it exactly as the
	// enclave would a peer's (authority signature, program measurement,
	// signature over the certified digest). It may cover a K-block segment
	// ending at the tip, so recover the covered suffix first; a certificate
	// for any other block matches no suffix and is refused.
	headers, err := segmentSuffixFor(n, tip.Header.Height, tipCert.Digest)
	if err != nil {
		return nil, err
	}
	ci, err := NewIssuer(n, authority, platform, cost)
	if err != nil {
		return nil, err
	}
	if err := tipCert.Verify(authority.PublicKey(), ci.Measurement(), SegmentDigest(headers)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	ci.mu.Lock()
	ci.lastCert = tipCert
	for _, h := range headers {
		ci.certs[h.Hash()] = tipCert
	}
	ci.recordSegmentLocked(headers, tipCert)
	ci.mu.Unlock()
	return ci, nil
}

// segmentSuffixFor finds the chain suffix ending at the tip whose segment
// digest matches the tip certificate's digest — i.e. which blocks the
// certificate covers. Single-block certificates match at length 1 (their
// segment digest IS the block digest); a certificate from a K-block segment
// committer matches at its segment length.
func segmentSuffixFor(n *node.FullNode, tipHeight uint64, digest chash.Hash) ([]*chain.Header, error) {
	var suffix []*chain.Header
	for k := 1; k <= maxSegmentBlocks; k++ {
		h := tipHeight + 1 - uint64(k)
		blk, err := n.Store().AtHeight(h)
		if err != nil {
			break // ran out of chain below the tip
		}
		suffix = append([]*chain.Header{&blk.Header}, suffix...)
		if SegmentDigest(suffix) == digest {
			return suffix, nil
		}
		if h == 0 {
			break
		}
	}
	return nil, fmt.Errorf("%w: certificate digest matches no chain suffix at the tip", ErrBadCheckpoint)
}
