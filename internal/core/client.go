package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
)

// SuperlightClient validates the blockchain at constant cost (Alg. 3): it
// keeps only the latest block header and its certificate, plus the pinned
// trust anchors (the attestation authority's key and the expected enclave
// measurement). Index certificates for verifiable queries are tracked the
// same way, one per index.
//
// SuperlightClient is safe for concurrent use.
type SuperlightClient struct {
	authorityPK *chash.PublicKey
	measurement chash.Hash
	params      consensus.Params

	mu sync.RWMutex
	// latestHdr/latestCert are the client's entire chain state.
	latestHdr  *chain.Header
	latestCert *Certificate
	// latestSeg is set when the tip certificate covers a multi-block segment
	// (nil for single-block certificates, where latestHdr/latestCert suffice
	// — keeping single-block snapshots byte-identical to the pre-segment
	// format).
	latestSeg *SegmentCert
	// attestedKeys caches enclave public keys whose attestation report has
	// already been verified — the paper's "check an attestation report only
	// once for the same enclave" (§4.3).
	attestedKeys map[string]bool
	// indexState tracks the latest certified root per authenticated index.
	indexState map[string]indexTrack
}

type indexTrack struct {
	header *chain.Header
	root   chash.Hash
	cert   *Certificate
}

// NewSuperlightClient creates a client pinned to an attestation authority
// and an expected enclave program measurement.
func NewSuperlightClient(authorityPK *chash.PublicKey, measurement chash.Hash, params consensus.Params) *SuperlightClient {
	return &SuperlightClient{
		authorityPK:  authorityPK,
		measurement:  measurement,
		params:       params,
		attestedKeys: make(map[string]bool),
		indexState:   make(map[string]indexTrack),
	}
}

// certChecks counts superlight-client certificate checks process-wide.
var certChecks atomic.Uint64

// CertChecks reports how many certificates superlight clients have checked
// in this process (each check is one enclave signature verification, plus
// the attestation report the first time an enclave key is seen). Tests read
// it before and after a step, as chain.SigVerifications.
func CertChecks() uint64 {
	return certChecks.Load()
}

// verifyCert runs Alg. 3 lines 2-7 with the once-per-enclave attestation
// cache.
func (c *SuperlightClient) verifyCert(cert *Certificate, digest chash.Hash) error {
	certChecks.Add(1)
	if cert == nil {
		return fmt.Errorf("%w: nil certificate", ErrBadCertificate)
	}
	c.mu.RLock()
	attested := c.attestedKeys[string(cert.PubKey)]
	c.mu.RUnlock()
	if attested {
		return cert.VerifySignatureOnly(digest)
	}
	if err := cert.Verify(c.authorityPK, c.measurement, digest); err != nil {
		return err
	}
	c.mu.Lock()
	c.attestedKeys[string(cert.PubKey)] = true
	c.mu.Unlock()
	return nil
}

// ValidateChain is validate_chain (Alg. 3): verify the certificate chain of
// trust over H(hdr), check the consensus-facing header fields, apply the
// longest-chain selection rule, and adopt the header as the new tip.
func (c *SuperlightClient) ValidateChain(hdr *chain.Header, cert *Certificate) error {
	if hdr == nil {
		return fmt.Errorf("%w: nil header", ErrBadCertificate)
	}
	// Lines 2-7: certificate verification against dig = H(hdr).
	if err := c.verifyCert(cert, BlockDigest(hdr)); err != nil {
		return err
	}
	// The certificate already attests the consensus proof was verified
	// in-enclave; the client re-checks the cheap header-local part.
	if err := consensus.Verify(c.params, hdr); err != nil {
		return err
	}
	// Line 8: chain selection — longest chain wins.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latestHdr != nil && hdr.Height <= c.latestHdr.Height {
		return fmt.Errorf("%w: height %d does not extend %d", ErrChainRule, hdr.Height, c.latestHdr.Height)
	}
	c.latestHdr = hdr
	c.latestCert = cert
	c.latestSeg = nil
	return nil
}

// ValidateIndex validates an augmented/hierarchical index certificate over
// dig = H(hdr ‖ root) and adopts it as the index's latest state (§5.3).
func (c *SuperlightClient) ValidateIndex(name string, hdr *chain.Header, root chash.Hash, cert *Certificate) error {
	if hdr == nil {
		return fmt.Errorf("%w: nil header", ErrBadCertificate)
	}
	if err := c.verifyCert(cert, IndexDigest(hdr, root)); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.indexState[name]; ok && hdr.Height <= cur.header.Height {
		return fmt.Errorf("%w: index %q height %d does not extend %d", ErrChainRule, name, hdr.Height, cur.header.Height)
	}
	c.indexState[name] = indexTrack{header: hdr, root: root, cert: cert}
	return nil
}

// Latest returns the client's current tip header and certificate.
func (c *SuperlightClient) Latest() (*chain.Header, *Certificate) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latestHdr, c.latestCert
}

// IndexRoot returns the latest certified root for an index.
func (c *SuperlightClient) IndexRoot(name string) (chash.Hash, uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.indexState[name]
	if !ok {
		return chash.Zero, 0, fmt.Errorf("%w: %q", ErrUnknownIndex, name)
	}
	return st.root, st.header.Height, nil
}

// StorageSize is the client's persistent footprint in bytes: the latest
// header plus its certificate — the constant of Fig. 7a (≈2.97 KB in the
// paper), independent of chain length.
func (c *SuperlightClient) StorageSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.latestHdr == nil || c.latestCert == nil {
		return 0
	}
	return c.latestHdr.EncodedSize() + c.latestCert.EncodedSize()
}

// Snapshot serializes the client's entire persistent state — the latest
// header and certificate (the ~3 KB of Fig. 7a). Trust anchors (authority
// key, measurement, consensus params) are configuration, not state.
func (c *SuperlightClient) Snapshot() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.latestHdr == nil || c.latestCert == nil {
		return nil, fmt.Errorf("core: snapshot of an empty client")
	}
	hdr := c.latestHdr.Marshal()
	cert := c.latestCert.Marshal()
	e := chash.NewEncoder(16 + len(hdr) + len(cert))
	e.PutBytes(hdr)
	e.PutBytes(cert)
	// A multi-block segment tip appends the whole segment: its certificate
	// only verifies against the segment digest, so the headers must travel
	// with it. Single-block tips omit the field entirely, keeping their
	// snapshot bytes identical to the pre-segment format.
	if c.latestSeg != nil && c.latestSeg.Tip().Hash() == c.latestHdr.Hash() {
		e.PutBytes(c.latestSeg.Marshal())
	}
	return e.Bytes(), nil
}

// Restore loads a snapshot, re-validating it through the full certificate
// path before adopting it — a client restarting from disk trusts only its
// pinned anchors, never the snapshot bytes.
func (c *SuperlightClient) Restore(raw []byte) error {
	d := chash.NewDecoder(raw)
	hdrRaw, err := d.ReadBytes()
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	hdr, err := chain.UnmarshalHeader(hdrRaw)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	certRaw, err := d.ReadBytes()
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	cert, err := UnmarshalCertificate(certRaw)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if d.Remaining() > 0 {
		// Segment-tip snapshot: the trailing field is the full segment whose
		// certificate is the one above.
		segRaw, err := d.ReadBytes()
		if err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if err := d.Finish(); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		seg, err := UnmarshalSegmentCert(segRaw)
		if err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if seg.Tip().Hash() != hdr.Hash() {
			return fmt.Errorf("%w: snapshot segment tip does not match header", ErrBadSegment)
		}
		return c.ValidateSegment(seg)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	return c.ValidateChain(hdr, cert)
}
