// Package core implements the DCert decentralized certification framework —
// the paper's primary contribution. It provides:
//
//   - Certificate, the ⟨pk_enc, rep, dig, sig⟩ tuple of §3.3, for blocks
//     (dig = H(hdr)) and authenticated indexes (dig = H(hdr ‖ H_idx));
//   - TrustedProgram, the in-enclave logic of Alg. 2 (ecall_sig_gen,
//     blk_verify_t, cert_verify_t) plus the index-certification extensions;
//   - Issuer, the SGX-enabled certificate issuer (CI) running Alg. 1
//     (block certificates), Alg. 4 (augmented certificates), and Alg. 5
//     (hierarchical certificates); and
//   - SuperlightClient, the constant-cost chain validator of Alg. 3.
package core

import (
	"errors"
	"fmt"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
)

// Package errors.
var (
	// ErrBadCertificate is returned when a certificate fails verification.
	ErrBadCertificate = errors.New("core: certificate verification failed")
	// ErrChainRule is returned when a validated block violates the chain
	// selection rule (Alg. 3 line 8).
	ErrChainRule = errors.New("core: chain selection rule violated")
	// ErrGenesisMismatch is returned when a claimed genesis block does not
	// match the hard-coded genesis digest (Alg. 2 line 4).
	ErrGenesisMismatch = errors.New("core: genesis digest mismatch")
	// ErrIndexRootMismatch is returned when a replayed index root does not
	// match the claimed one (Alg. 4 line 10).
	ErrIndexRootMismatch = errors.New("core: index root mismatch")
	// ErrUnknownIndex is returned for operations on unregistered indexes.
	ErrUnknownIndex = errors.New("core: unknown index")
)

// Certificate is the DCert certificate cert = ⟨pk_enc, rep, dig, sig⟩.
// For block certificates dig = H(hdr_i); for augmented/hierarchical index
// certificates dig = H(hdr_i ‖ H_i^idx).
type Certificate struct {
	// PubKey is pk_enc, the enclave-generated public key (DER).
	PubKey []byte
	// Report is rep, the attestation report binding pk_enc to the enclave
	// measurement.
	Report *attest.Report
	// Digest is dig, the certified digest.
	Digest chash.Hash
	// Sig is sig, the enclave's signature over Digest.
	Sig []byte
}

// BlockDigest is the certified digest of a block certificate: H(hdr_i).
func BlockDigest(hdr *chain.Header) chash.Hash {
	return hdr.Hash()
}

// IndexDigest is the certified digest of an index certificate:
// H(hdr_i ‖ H_i^idx). The paper's Alg. 4 line 13 writes the previous block's
// digest here, which contradicts the signature computed on line 12 and the
// verification on line 4; we follow the signature (current block), which is
// the only self-consistent reading.
func IndexDigest(hdr *chain.Header, indexRoot chash.Hash) chash.Hash {
	h := hdr.Hash()
	return chash.Sum(chash.DomainCert, h[:], indexRoot[:])
}

// Verify checks the full certificate chain of trust against an expected
// digest (the shared logic of cert_verify_t, Alg. 2 lines 26-32, and the
// client-side Alg. 3 lines 2-7):
//
//  1. rep is signed by the attestation authority,
//  2. rep's measurement equals the expected enclave program,
//  3. pk_enc matches rep's report data,
//  4. sig verifies dig under pk_enc, and
//  5. dig equals the expected digest.
func (c *Certificate) Verify(authorityPK *chash.PublicKey, measurement chash.Hash, expectDigest chash.Hash) error {
	if c == nil {
		return fmt.Errorf("%w: nil certificate", ErrBadCertificate)
	}
	if c.Report == nil {
		return fmt.Errorf("%w: missing attestation report", ErrBadCertificate)
	}
	pk, err := chash.ParsePublicKey(c.PubKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if err := c.Report.Verify(authorityPK, measurement, pk.Fingerprint()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if err := pk.Verify(c.Digest, c.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if c.Digest != expectDigest {
		return fmt.Errorf("%w: digest mismatch", ErrBadCertificate)
	}
	return nil
}

// VerifySignatureOnly re-checks only the signature and digest, for clients
// that already validated this enclave's attestation report (the paper notes
// the report needs checking only once per CI, §4.3).
func (c *Certificate) VerifySignatureOnly(expectDigest chash.Hash) error {
	if c == nil {
		return fmt.Errorf("%w: nil certificate", ErrBadCertificate)
	}
	pk, err := chash.ParsePublicKey(c.PubKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if err := pk.Verify(c.Digest, c.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if c.Digest != expectDigest {
		return fmt.Errorf("%w: digest mismatch", ErrBadCertificate)
	}
	return nil
}

// Marshal serializes the certificate.
func (c *Certificate) Marshal() []byte {
	e := chash.NewEncoder(c.EncodedSize())
	c.Encode(e)
	return e.Bytes()
}

// Encode appends the certificate's Marshal bytes to e, the report written
// in place behind its length prefix.
func (c *Certificate) Encode(e *chash.Encoder) {
	e.PutBytes(c.PubKey)
	e.PutUint32(uint32(c.Report.EncodedSize()))
	c.Report.Encode(e)
	e.PutHash(c.Digest)
	e.PutBytes(c.Sig)
}

// UnmarshalCertificate parses a certificate produced by Marshal.
func UnmarshalCertificate(raw []byte) (*Certificate, error) {
	d := chash.NewDecoder(raw)
	var c Certificate
	var err error
	if c.PubKey, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("core: unmarshal certificate: %w", err)
	}
	repRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("core: unmarshal certificate: %w", err)
	}
	if c.Report, err = attest.UnmarshalReport(repRaw); err != nil {
		return nil, fmt.Errorf("core: unmarshal certificate: %w", err)
	}
	if c.Digest, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("core: unmarshal certificate: %w", err)
	}
	if c.Sig, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("core: unmarshal certificate: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: unmarshal certificate: %w", err)
	}
	return &c, nil
}

// EncodedSize returns the serialized certificate size in bytes — the
// dominant term of the superlight client's constant storage (Fig. 7a).
func (c *Certificate) EncodedSize() int {
	return 12 + len(c.PubKey) + c.Report.EncodedSize() + chash.Size + len(c.Sig)
}
