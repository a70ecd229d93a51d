// Package attest simulates the Intel SGX remote-attestation infrastructure
// the DCert paper relies on (§2.2, §3.3): hardware quoting keys, quotes that
// bind an enclave measurement to user-supplied report data (here: the
// fingerprint of the enclave-generated public key pk_enc), and the Intel
// Attestation Service (IAS) that verifies quotes and issues signed
// attestation reports.
//
// The simulation keeps the verification chain byte-for-byte real: quotes are
// ECDSA-signed by a per-platform quoting key registered with the authority,
// and reports are ECDSA-signed by the authority's root key, which verifiers
// trust out of band (exactly how clients trust Intel's report-signing
// certificate). Only the hardware provenance of the quoting key is assumed
// rather than enforced — the assumption the paper makes of SGX itself.
package attest

import (
	"errors"
	"fmt"
	"sync"

	"dcert/internal/chash"
)

// Package errors.
var (
	// ErrUnknownPlatform is returned for quotes from unregistered hardware.
	ErrUnknownPlatform = errors.New("attest: quote from unknown platform")
	// ErrBadQuote is returned when a quote's signature fails.
	ErrBadQuote = errors.New("attest: quote signature invalid")
	// ErrBadReport is returned when a report fails verification.
	ErrBadReport = errors.New("attest: report verification failed")
	// ErrMeasurementMismatch is returned when a report's measurement does
	// not match the verifier's expected enclave program.
	ErrMeasurementMismatch = errors.New("attest: enclave measurement mismatch")
	// ErrReportDataMismatch is returned when a report's user data does not
	// match (e.g. pk_enc binding, Alg. 3 line 5).
	ErrReportDataMismatch = errors.New("attest: report data mismatch")
)

// Quote is the hardware-signed statement an enclave produces: "an enclave
// with this measurement, on this platform, vouches for this report data".
type Quote struct {
	// Measurement identifies the enclave program.
	Measurement chash.Hash
	// ReportData is caller-chosen data bound into the quote (pk_enc digest).
	ReportData chash.Hash
	// PlatformID names the quoting key that signed.
	PlatformID string
	// Signature is the platform quoting key's signature.
	Signature []byte
}

// preimage is the signed content of a quote.
func (q *Quote) preimage() chash.Hash {
	e := chash.NewEncoder(128)
	e.PutHash(q.Measurement)
	e.PutHash(q.ReportData)
	e.PutString(q.PlatformID)
	return chash.Sum(chash.DomainQuote, e.Bytes())
}

// Platform models one SGX-capable machine: it holds the hardware quoting key
// used to sign quotes for enclaves running on it.
type Platform struct {
	id string
	sk *chash.PrivateKey
}

// ID returns the platform identifier.
func (p *Platform) ID() string {
	return p.id
}

// SignQuote produces a quote for an enclave on this platform.
func (p *Platform) SignQuote(measurement, reportData chash.Hash) (*Quote, error) {
	q := &Quote{Measurement: measurement, ReportData: reportData, PlatformID: p.id}
	sig, err := p.sk.Sign(q.preimage())
	if err != nil {
		return nil, fmt.Errorf("attest: sign quote: %w", err)
	}
	q.Signature = sig
	return q, nil
}

// Authority simulates the IAS: it knows the genuine platforms' quoting keys
// and issues signed attestation reports for valid quotes.
//
// Authority is safe for concurrent use.
type Authority struct {
	mu        sync.RWMutex
	sk        *chash.PrivateKey
	pk        *chash.PublicKey
	platforms map[string]*chash.PublicKey
	nextID    int
}

// NewAuthority creates an attestation authority with a fresh root key.
func NewAuthority() (*Authority, error) {
	sk, err := chash.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("attest: authority key: %w", err)
	}
	return buildAuthority(sk)
}

// NewAuthorityFromSeed creates an authority whose root key is derived
// deterministically from the seed, so two independently built test rigs share
// an identical trust anchor (and therefore byte-identical reports).
func NewAuthorityFromSeed(seed []byte) (*Authority, error) {
	sk, err := chash.GenerateKeyFromSeed(append([]byte("authority/"), seed...))
	if err != nil {
		return nil, fmt.Errorf("attest: authority key: %w", err)
	}
	return buildAuthority(sk)
}

func buildAuthority(sk *chash.PrivateKey) (*Authority, error) {
	pk, err := sk.Public()
	if err != nil {
		return nil, fmt.Errorf("attest: authority key: %w", err)
	}
	return &Authority{sk: sk, pk: pk, platforms: make(map[string]*chash.PublicKey)}, nil
}

// PublicKey returns the authority's report-signing key, which verifiers
// trust out of band.
func (a *Authority) PublicKey() *chash.PublicKey {
	return a.pk
}

// NewPlatform provisions a platform with a quoting key known to the
// authority (the EPID/DCAP provisioning step).
func (a *Authority) NewPlatform() (*Platform, error) {
	sk, err := chash.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("attest: platform key: %w", err)
	}
	return a.register(sk)
}

// NewPlatformFromSeed provisions a platform whose quoting key is derived
// deterministically from the seed (platform IDs stay sequential per
// authority, so equal provisioning order gives equal IDs).
func (a *Authority) NewPlatformFromSeed(seed []byte) (*Platform, error) {
	sk, err := chash.GenerateKeyFromSeed(append([]byte("platform/"), seed...))
	if err != nil {
		return nil, fmt.Errorf("attest: platform key: %w", err)
	}
	return a.register(sk)
}

func (a *Authority) register(sk *chash.PrivateKey) (*Platform, error) {
	pk, err := sk.Public()
	if err != nil {
		return nil, fmt.Errorf("attest: platform key: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	id := fmt.Sprintf("sgx-platform-%04d", a.nextID)
	a.platforms[id] = pk
	return &Platform{id: id, sk: sk}, nil
}

// Attest verifies a quote and issues a signed attestation report
// (the IAS round trip of §3.3).
func (a *Authority) Attest(q *Quote) (*Report, error) {
	a.mu.RLock()
	pk, ok := a.platforms[q.PlatformID]
	a.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlatform, q.PlatformID)
	}
	if err := pk.Verify(q.preimage(), q.Signature); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuote, err)
	}
	r := &Report{
		Measurement: q.Measurement,
		ReportData:  q.ReportData,
		PlatformID:  q.PlatformID,
		CertChain:   syntheticCertChain(),
	}
	sig, err := a.sk.Sign(r.preimage())
	if err != nil {
		return nil, fmt.Errorf("attest: sign report: %w", err)
	}
	r.Signature = sig
	return r, nil
}

// Report is the IAS attestation report (rep in the paper's certificates).
type Report struct {
	// Measurement identifies the attested enclave program.
	Measurement chash.Hash
	// ReportData is the user data bound into the attested quote.
	ReportData chash.Hash
	// PlatformID names the attested platform.
	PlatformID string
	// CertChain carries the report-signing certificate chain. The simulated
	// chain has a realistic IAS size (~2 KB) so that client storage-cost
	// measurements reflect real report sizes.
	CertChain []byte
	// Signature is the authority's signature over the report body.
	Signature []byte
}

// preimage is the signed content of a report.
func (r *Report) preimage() chash.Hash {
	e := chash.NewEncoder(256 + len(r.CertChain))
	e.PutHash(r.Measurement)
	e.PutHash(r.ReportData)
	e.PutString(r.PlatformID)
	e.PutBytes(r.CertChain)
	return chash.Sum(chash.DomainReport, e.Bytes())
}

// Verify checks the report chain a superlight client runs (Alg. 3 lines
// 3-5): the authority's signature, the expected enclave measurement, and the
// report-data binding.
func (r *Report) Verify(authorityPK *chash.PublicKey, expectMeasurement, expectReportData chash.Hash) error {
	if err := authorityPK.Verify(r.preimage(), r.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	if r.Measurement != expectMeasurement {
		return fmt.Errorf("%w: report %s, expected %s", ErrMeasurementMismatch, r.Measurement, expectMeasurement)
	}
	if r.ReportData != expectReportData {
		return fmt.Errorf("%w: report %s, expected %s", ErrReportDataMismatch, r.ReportData, expectReportData)
	}
	return nil
}

// Marshal serializes the report.
func (r *Report) Marshal() []byte {
	e := chash.NewEncoder(r.EncodedSize())
	r.Encode(e)
	return e.Bytes()
}

// Encode appends the report's Marshal bytes to e.
func (r *Report) Encode(e *chash.Encoder) {
	e.PutHash(r.Measurement)
	e.PutHash(r.ReportData)
	e.PutString(r.PlatformID)
	e.PutBytes(r.CertChain)
	e.PutBytes(r.Signature)
}

// UnmarshalReport parses a report produced by Marshal.
func UnmarshalReport(raw []byte) (*Report, error) {
	d := chash.NewDecoder(raw)
	var r Report
	var err error
	if r.Measurement, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal report: %w", err)
	}
	if r.ReportData, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal report: %w", err)
	}
	if r.PlatformID, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal report: %w", err)
	}
	if r.CertChain, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal report: %w", err)
	}
	if r.Signature, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal report: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("attest: unmarshal report: %w", err)
	}
	return &r, nil
}

// EncodedSize returns the serialized report size, without encoding it.
func (r *Report) EncodedSize() int {
	return 2*chash.Size + 12 + len(r.PlatformID) + len(r.CertChain) + len(r.Signature)
}

// syntheticCertChainSize approximates the PEM certificate chain attached to
// real IAS reports.
const syntheticCertChainSize = 2560

// syntheticCertChain builds a deterministic placeholder certificate chain of
// realistic size.
func syntheticCertChain() []byte {
	chain := make([]byte, syntheticCertChainSize)
	seed := chash.Sum(chash.DomainReport, []byte("synthetic-ias-cert-chain"))
	for i := 0; i < len(chain); i += chash.Size {
		copy(chain[i:], seed[:])
		seed = chash.Sum(chash.DomainReport, seed[:])
	}
	return chain
}
