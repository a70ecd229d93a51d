package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/enclave"
	"dcert/internal/statedb"
)

// Segment certification: amortizing the block-certification Ecall. The
// recursive scheme of Alg. 1 pays one enclave entry per block — the dominant
// stage of the pipeline (BENCH_pipeline.json). A segment certificate extends
// the recursion unit from one block to K consecutive blocks: the enclave
// verifies the previous segment's certificate once, replays all K state
// transitions, and signs a single digest covering every header in the
// segment. Per-block state and index roots stay inside the signed headers,
// so query verification against a certified header is unchanged.
//
// K=1 is not a special mode but an identity: SegmentDigest of a single
// header IS BlockDigest of that header, so a one-block segment certificate
// is byte-for-byte the existing single-block certificate (golden-pinned by
// TestSegmentK1ByteIdentity).
//
// On top of segments, every certificate carries an interlink — hash links to
// the certified headers at exponentially spaced back-heights, the same
// deterministic exponential back-structure as internal/skiplist's tower —
// which lets a stale superlight client walk from the tip back to a trusted
// mid-chain anchor in O(log n) certificate fetches (BootstrapSublinear)
// instead of replaying the stream. The genesis anchor needs no walk: the
// enclave measurement binds the genesis hash (ProgramID), so the verified
// tip certificate alone certifies descent from genesis. The interlink itself
// is NOT signed (signing it would break the K=1 byte identity): it is a
// routing hint, and every hop is verified by fetching the pointed-to
// segment, validating its enclave signature, and comparing its own certified
// header hash against the pointer. A forged pointer is therefore refuted by
// the first honest segment it names; soundness reduces to the
// enclave-only-signs-valid-chains invariant that all DCert trust rests on
// (DESIGN.md §15).

// Segment errors.
var (
	// ErrBadSegment is returned for structurally invalid segment
	// certificates (empty, broken internal linkage, digest mismatch).
	ErrBadSegment = errors.New("core: bad segment certificate")
	// ErrBadInterlink is returned when a bootstrap walk refutes an interlink
	// pointer or cannot converge on the trusted anchor.
	ErrBadInterlink = errors.New("core: bad interlink pointer")
	// ErrSegmentUnavailable is returned when no segment covering a requested
	// height is available from the serving issuer.
	ErrSegmentUnavailable = errors.New("core: segment unavailable")
)

// Hard decode bounds for untrusted segment bytes: a segment never spans more
// blocks than the deepest batching policy, and interlink levels are bounded
// by the height space (2^64). Counts beyond these are rejected before any
// allocation proportional to them.
const (
	maxSegmentBlocks   = 4096
	maxInterlinkLevels = 64
)

// MaxBootstrapPath bounds a bootstrap path (Issuer.BootstrapPath): the tip
// segment plus the most hops the client's walk takes before it gives up.
const MaxBootstrapPath = 2*maxInterlinkLevels + 1

// SegmentDigest is the certified digest of a K-block segment. For a single
// header it is exactly BlockDigest — the K=1 byte identity that keeps
// one-block segment certificates indistinguishable from the pre-segment
// scheme. For K>1 it is a domain-separated hash over the ordered header
// hashes.
func SegmentDigest(headers []*chain.Header) chash.Hash {
	if len(headers) == 1 {
		return BlockDigest(headers[0])
	}
	e := chash.NewEncoder(32 + len(headers)*32)
	e.PutString("dcert-segment-digest-v1")
	e.PutUint32(uint32(len(headers)))
	for _, h := range headers {
		e.PutHash(h.Hash())
	}
	return chash.Sum(chash.DomainCert, e.Bytes())
}

// SegmentCert is a certified K-block segment: the covered headers (in chain
// order), one certificate whose digest is SegmentDigest(Headers), and the
// unsigned interlink routing hints for sublinear bootstrap. Interlink[l] is
// the certified header hash at height Start()−2^l (level 0 duplicates the
// first header's PrevHash and is cross-checked against it).
type SegmentCert struct {
	// Headers are the covered block headers, ascending, contiguous.
	Headers []*chain.Header
	// Cert is the enclave certificate over SegmentDigest(Headers).
	Cert *Certificate
	// Interlink holds certified header hashes at heights Start()−2^l.
	Interlink []chash.Hash
}

// Start is the first covered height.
func (s *SegmentCert) Start() uint64 { return s.Headers[0].Height }

// End is the last covered height (the segment's tip).
func (s *SegmentCert) End() uint64 { return s.Headers[len(s.Headers)-1].Height }

// Tip is the last covered header.
func (s *SegmentCert) Tip() *chain.Header { return s.Headers[len(s.Headers)-1] }

// HeaderAt returns the covered header at a height (nil if out of range).
func (s *SegmentCert) HeaderAt(height uint64) *chain.Header {
	if len(s.Headers) == 0 || height < s.Start() || height > s.End() {
		return nil
	}
	return s.Headers[height-s.Start()]
}

// Digest recomputes the segment's certified digest.
func (s *SegmentCert) Digest() chash.Hash { return SegmentDigest(s.Headers) }

// Marshal renders the segment certificate canonically.
func (s *SegmentCert) Marshal() []byte {
	e := chash.NewEncoder(s.EncodedSize())
	s.Encode(e)
	return e.Bytes()
}

// Encode appends the segment certificate's Marshal bytes to e, every header
// and the certificate written in place behind their length prefixes.
func (s *SegmentCert) Encode(e *chash.Encoder) {
	e.PutUint32(uint32(len(s.Headers)))
	for _, h := range s.Headers {
		e.PutUint32(chain.HeaderSize)
		h.Encode(e)
	}
	e.PutUint32(uint32(s.Cert.EncodedSize()))
	s.Cert.Encode(e)
	e.PutUint32(uint32(len(s.Interlink)))
	for _, link := range s.Interlink {
		e.PutHash(link)
	}
}

// UnmarshalSegmentCert parses untrusted segment-certificate bytes.
func UnmarshalSegmentCert(raw []byte) (*SegmentCert, error) {
	d := chash.NewDecoder(raw)
	n, err := d.Count(maxSegmentBlocks, 4+chain.HeaderSize)
	if err != nil {
		return nil, fmt.Errorf("%w: headers: %v", ErrBadSegment, err)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: no headers", ErrBadSegment)
	}
	headers := make([]*chain.Header, 0, n)
	for i := range n {
		hraw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: header %d: %v", ErrBadSegment, i, err)
		}
		hdr, err := chain.UnmarshalHeader(hraw)
		if err != nil {
			return nil, fmt.Errorf("%w: header %d: %v", ErrBadSegment, i, err)
		}
		headers = append(headers, hdr)
	}
	certRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	cert, err := UnmarshalCertificate(certRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	ln, err := d.Count(maxInterlinkLevels, chash.Size)
	if err != nil {
		return nil, fmt.Errorf("%w: interlink: %v", ErrBadSegment, err)
	}
	var interlink []chash.Hash
	for i := range ln {
		link, err := d.ReadHash()
		if err != nil {
			return nil, fmt.Errorf("%w: interlink %d: %v", ErrBadSegment, i, err)
		}
		interlink = append(interlink, link)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	return &SegmentCert{Headers: headers, Cert: cert, Interlink: interlink}, nil
}

// EncodedSize is the segment certificate's wire footprint, computed without
// encoding it.
func (s *SegmentCert) EncodedSize() int {
	return 12 + len(s.Headers)*(4+chain.HeaderSize) + s.Cert.EncodedSize() + len(s.Interlink)*chash.Size
}

// Marshal renders the cert bundle canonically: the header, then the
// certificate, each behind a length prefix.
func (b *CertBundle) Marshal() []byte {
	e := chash.NewEncoder(b.EncodedSize())
	b.Encode(e)
	return e.Bytes()
}

// Encode appends the cert bundle's Marshal bytes to e.
func (b *CertBundle) Encode(e *chash.Encoder) {
	e.PutUint32(chain.HeaderSize)
	b.Header.Encode(e)
	e.PutUint32(uint32(b.Cert.EncodedSize()))
	b.Cert.Encode(e)
}

// EncodedSize is the cert bundle's wire footprint.
func (b *CertBundle) EncodedSize() int {
	return 8 + chain.HeaderSize + b.Cert.EncodedSize()
}

// UnmarshalCertBundle parses untrusted cert-bundle bytes.
func UnmarshalCertBundle(raw []byte) (*CertBundle, error) {
	d := chash.NewDecoder(raw)
	hdrRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("core: cert bundle: %w", err)
	}
	certRaw, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("core: cert bundle: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: cert bundle: %w", err)
	}
	hdr, err := chain.UnmarshalHeader(hdrRaw)
	if err != nil {
		return nil, fmt.Errorf("core: cert bundle header: %w", err)
	}
	cert, err := UnmarshalCertificate(certRaw)
	if err != nil {
		return nil, fmt.Errorf("core: cert bundle certificate: %w", err)
	}
	return &CertBundle{Header: hdr, Cert: cert}, nil
}

// InterlinkHeights is the deterministic back-height schedule for a segment
// starting at height start: start−1, start−2, start−4, ... while the step
// stays on-chain. Height 0 (genesis) participates like any other height.
func InterlinkHeights(start uint64) []uint64 {
	if start == 0 {
		return nil
	}
	var heights []uint64
	for step := uint64(1); step != 0 && step <= start; step <<= 1 {
		heights = append(heights, start-step)
	}
	return heights
}

// SegmentPolicy is the committer's adaptive batching policy: a segment
// closes at MaxBlocks, or MaxDelay after its first block arrived, whichever
// comes first — steady-state throughput rides the amortization curve while
// tip latency under slow arrival stays bounded by the deadline.
type SegmentPolicy struct {
	// MaxBlocks is K, the largest segment (values below 1 mean 1: every
	// block certifies on arrival, under the per-block certificate bytes).
	MaxBlocks int
	// MaxDelay bounds how long a partial segment may wait for more blocks
	// before certifying what it has (0 = wait for MaxBlocks or stream end).
	MaxDelay time.Duration
}

// buildInterlink resolves the interlink schedule for a segment starting at
// start against the issuer's own (certified) chain. Called with ci.mu held
// or on a quiescent issuer; the store has its own lock.
func (ci *Issuer) buildInterlink(start uint64) []chash.Hash {
	heights := InterlinkHeights(start)
	links := make([]chash.Hash, 0, len(heights))
	for _, h := range heights {
		hash, err := ci.node.Store().HashAt(h)
		if err != nil {
			return nil // a pruned store; degrade to no hints
		}
		links = append(links, hash)
	}
	return links
}

// recordSegmentLocked appends a segment to the issuer's ordered serving
// history (ci.mu held; the covered blocks are already in the store).
func (ci *Issuer) recordSegmentLocked(headers []*chain.Header, cert *Certificate) *SegmentCert {
	seg := &SegmentCert{Headers: headers, Cert: cert, Interlink: ci.buildInterlink(headers[0].Height)}
	ci.segs = append(ci.segs, seg)
	ci.lastSegHeaders = headers
	return seg
}

// SegmentCovering returns the certified segment containing height, or nil if
// the issuer holds none (heights certified before a restart are served only
// from the resumed tip segment onward).
func (ci *Issuer) SegmentCovering(height uint64) *SegmentCert {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.segmentCoveringLocked(height)
}

func (ci *Issuer) segmentCoveringLocked(height uint64) *SegmentCert {
	segs := ci.segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].End() >= height })
	if i < len(segs) && segs[i].Start() <= height {
		return segs[i]
	}
	return nil
}

// LatestSegment returns the issuer's newest certified segment, or nil before
// the first certificate (or mid-certification, when the node's tip is not
// yet covered).
func (ci *Issuer) LatestSegment() *SegmentCert {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.latestSegmentLocked()
}

func (ci *Issuer) latestSegmentLocked() *SegmentCert {
	if len(ci.segs) == 0 {
		return nil
	}
	seg := ci.segs[len(ci.segs)-1]
	if seg.End() != ci.node.Tip().Header.Height {
		return nil
	}
	return seg
}

// BootstrapPath runs the client's interlink walk on the serving side: the
// tip segment, then every segment BootstrapSublinear would fetch on its way
// down to anchorHeight, in walk order — the whole bootstrap in one response
// (the dcert/bootstrap wire route). The tip is a segment this issuer
// certified, normally its LatestSegment; a nil tip (none certified yet)
// yields nil. The genesis anchor (0) yields the tip alone, as does an
// untrusted anchor inside the tip segment, above it, or directly below its
// first height; the path never exceeds MaxBootstrapPath. A height the
// issuer no longer serves ends the path early; the client's walk then
// reports the missing hop.
func (ci *Issuer) BootstrapPath(tip *SegmentCert, anchorHeight uint64) []*SegmentCert {
	if tip == nil {
		return nil
	}
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	path := []*SegmentCert{tip}
	for cur := tip; len(path) < MaxBootstrapPath; {
		_, target, done := nextHop(cur.Start(), len(cur.Interlink), anchorHeight)
		if done {
			break
		}
		if cur = ci.segmentCoveringLocked(target); cur == nil {
			break
		}
		path = append(path, cur)
	}
	return path
}

// captureUndo records the prior value of every key a block is about to
// write, so a failed segment Ecall can restore the replica to its certified
// state.
func captureUndo(state *statedb.DB, blockHash chash.Hash, writes map[string][]byte) (*undoRec, error) {
	undo, err := state.CaptureUndo(writes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &undoRec{blockHash: blockHash, undo: undo}, nil
}

// applyUndo restores speculative commits, newest record first.
func applyUndo(state *statedb.DB, recs []*undoRec) {
	for i := len(recs) - 1; i >= 0; i-- {
		if err := state.Revert(recs[i].undo); err != nil {
			panic(fmt.Sprintf("core: rollback: %v", err))
		}
	}
}

// ProcessSegment certifies a contiguous run of blocks extending the CI's tip
// with ONE enclave entry: untrusted pre-processing for every block (each
// executed on the previous block's committed post-state), a single
// EcallSegmentSigGen, then atomic adoption of all K blocks under the one
// segment certificate. On any failure every speculative state commit is
// rolled back and the replica is left exactly at its certified tip.
//
// Apart from the certify step it shares no code with the Pipeline, which is
// what lets the pipeline equivalence tests use it as the sequential oracle.
func (ci *Issuer) ProcessSegment(blks []*chain.Block) (*SegmentCert, CostBreakdown, error) {
	var bd CostBreakdown
	if len(blks) == 0 {
		return nil, bd, fmt.Errorf("%w: empty segment", ErrBadSegment)
	}
	certifyStart := time.Now()

	state := ci.node.State()
	proofs := make([]*statedb.UpdateProof, len(blks))
	var undo []*undoRec
	rollback := func() { applyUndo(state, undo) }
	for i, blk := range blks {
		proof, res, err := ci.prepare(blk, &bd)
		if err != nil {
			rollback()
			return nil, bd, err
		}
		rec, err := captureUndo(state, blk.Hash(), res.WriteSet)
		if err != nil {
			rollback()
			return nil, bd, err
		}
		if _, err := state.Commit(res.WriteSet); err != nil {
			rollback()
			return nil, bd, fmt.Errorf("core: segment speculative commit: %w", err)
		}
		undo = append(undo, rec)
		proofs[i] = proof
	}

	seg, err := ci.certify(blks, proofs, &bd)
	if err != nil {
		rollback()
		return nil, bd, err
	}
	ci.met.certifySec.Observe(time.Since(certifyStart).Seconds())
	return seg, bd, nil
}

// certify is Alg. 1 lines 4-7 for prepared blocks whose state writes are
// already committed: the one Ecall, certificate assembly, atomic adoption.
func (ci *Issuer) certify(blks []*chain.Block, proofs []*statedb.UpdateProof, bd *CostBreakdown) (*SegmentCert, error) {
	sig, err := ci.ecallSigGen(blks, proofs, bd)
	if err != nil {
		return nil, err
	}
	return ci.adopt(blks, ci.newCert(SegmentDigest(segmentHeaders(blks)), sig))
}

// segmentHeaders projects a block run onto copies of its headers. The
// issuer keeps a segment's headers for as long as it serves the segment, so
// they must not point into the blocks: an interior pointer would keep each
// whole block, transactions included, alive with them.
func segmentHeaders(blks []*chain.Block) []*chain.Header {
	headers := make([]chain.Header, len(blks))
	out := make([]*chain.Header, len(blks))
	for i, blk := range blks {
		headers[i] = blk.Header
		out[i] = &headers[i]
	}
	return out
}

// ModelBootstrapFetches predicts BootstrapSublinear's fetch count for a
// chain of chainLen blocks certified in segBlocks-block segments, walking to
// the genesis anchor: 0 hops at every chain length and segment size. The
// enclave measurement binds genesis, so the verified tip certificate alone
// certifies descent from it and nextHop is done at the tip (the regression
// tests pin model == measured at 16, 512 and 10 000 blocks).
func ModelBootstrapFetches(chainLen uint64, segBlocks int) int {
	return 0
}

// nextHop is the interlink walk's one step rule, shared by the client's walk
// (BootstrapSublinear) and the serving side's (Issuer.BootstrapPath). The
// walk is done at once for the genesis anchor (height 0), whose hash the
// pinned measurement binds, and otherwise once the segment starting at start
// covers the anchor height or directly follows it; until then it takes the
// greedy hop of the returned level to target, clamped to the levels the
// segment's interlink carries. It never computes anchor+1, so an anchor of
// MaxUint64 cannot wrap around.
func nextHop(start uint64, levels int, anchor uint64) (level int, target uint64, done bool) {
	if anchor == 0 || start <= anchor || start-1 == anchor {
		return 0, 0, true
	}
	level = interlinkHop(start, anchor, levels)
	return level, start - uint64(1)<<uint(level), false
}

// interlinkHop picks the greedy hop level from a segment starting at start
// toward a non-genesis anchor: the largest level whose target start−2^level
// stays at or above the anchor, clamped to the levels the interlink actually
// carries.
func interlinkHop(start, anchor uint64, levels int) int {
	best := 0
	for l := 1; l < maxInterlinkLevels; l++ {
		step := uint64(1) << uint(l)
		if step > start || start-step < anchor {
			break
		}
		best = l
	}
	if levels > 0 && best >= levels {
		best = levels - 1
	}
	return best
}

// SegmentFetcher retrieves the certified segment covering a height (served
// by Issuer.SegmentCovering locally or the dcert/cert-segment wire route
// remotely; BootstrapFromPath answers it from a path the node walked).
type SegmentFetcher func(height uint64) (*SegmentCert, error)

// VerifySegment validates a segment certificate without adopting it: the
// enclave certificate over the segment digest, per-header consensus checks,
// internal hash/height linkage, and the level-0 interlink consistency rule.
// The client's tip does not move, so a verifier that gates on certificates
// but follows no chain rule of its own (the SP's certified feed) uses it.
func (c *SuperlightClient) VerifySegment(seg *SegmentCert) error {
	if seg == nil || len(seg.Headers) == 0 {
		return fmt.Errorf("%w: empty segment", ErrBadSegment)
	}
	if len(seg.Headers) > maxSegmentBlocks {
		return fmt.Errorf("%w: %d headers beyond %d", ErrBadSegment, len(seg.Headers), maxSegmentBlocks)
	}
	if err := c.verifyCert(seg.Cert, SegmentDigest(seg.Headers)); err != nil {
		return err
	}
	for i, hdr := range seg.Headers {
		if hdr == nil {
			return fmt.Errorf("%w: nil header", ErrBadSegment)
		}
		if err := consensus.Verify(c.params, hdr); err != nil {
			return err
		}
		if i > 0 {
			if hdr.PrevHash != seg.Headers[i-1].Hash() || hdr.Height != seg.Headers[i-1].Height+1 {
				return fmt.Errorf("%w: linkage broken at height %d", ErrBadSegment, hdr.Height)
			}
		}
	}
	// The unsigned level-0 hint must agree with the signed PrevHash; a
	// mismatch is a tampered interlink regardless of what it points at.
	if len(seg.Interlink) > 0 && seg.Interlink[0] != seg.Headers[0].PrevHash {
		return fmt.Errorf("%w: level 0 disagrees with signed PrevHash", ErrBadInterlink)
	}
	return nil
}

// ValidateSegment is validate_chain extended to segment certificates: verify
// the certificate chain of trust over the segment digest, check every
// covered header, apply the longest-chain rule on the segment's tip, and
// adopt it.
func (c *SuperlightClient) ValidateSegment(seg *SegmentCert) error {
	if err := c.VerifySegment(seg); err != nil {
		return err
	}
	return c.adoptSegment(seg)
}

// adoptSegment applies the chain rule and adopts a verified segment's tip.
func (c *SuperlightClient) adoptSegment(seg *SegmentCert) error {
	tip := seg.Tip()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latestHdr != nil && tip.Height <= c.latestHdr.Height {
		return fmt.Errorf("%w: height %d does not extend %d", ErrChainRule, tip.Height, c.latestHdr.Height)
	}
	c.latestHdr = tip
	c.latestCert = seg.Cert
	if len(seg.Headers) > 1 {
		c.latestSeg = seg
	} else {
		c.latestSeg = nil
	}
	return nil
}

// BootstrapSublinear brings the client current from a tip segment in
// O(log n) certificate fetches. From the genesis anchor it fetches none: the
// verified tip certificate certifies descent from genesis once the client
// checks that its pinned measurement binds anchorHash. From any other anchor
// it starts at the (fully verified) tip segment and repeatedly takes the
// largest interlink hop that does not overshoot the anchor, fetches the
// segment covering the hop target, verifies that segment's own enclave
// certificate, and cross-checks its certified header hash against the
// pointer — a forged pointer is refuted at the first hop that uses it. The
// walk terminates when a verified segment reaches the anchor height and its
// certified hash (or, for an anchor just below a segment, the signed
// PrevHash) equals anchorHash; only then is the tip adopted. It returns the
// number of fetches performed.
//
// anchorHeight/anchorHash are the client's trusted anchor — genesis, or any
// previously validated tip. Each hop at least halves the remaining distance,
// so fetches ≤ log2(tip−anchor)+1 regardless of chain length.
func (c *SuperlightClient) BootstrapSublinear(fetch SegmentFetcher, tip *SegmentCert, anchorHeight uint64, anchorHash chash.Hash) (int, error) {
	fetches, err := c.walkInterlink(fetch, tip, anchorHeight, anchorHash)
	if err != nil {
		return fetches, err
	}
	return fetches, c.adoptSegment(tip)
}

// BootstrapFromPath is BootstrapSublinear over a walk the serving side has
// already run (Issuer.BootstrapPath, shipped whole on dcert/bootstrap):
// path[0] is the tip segment, and the walk's fetches are answered from
// path[1:] in order, each hop verified exactly as if fetched on its own. A
// path that drops, reorders or pads a hop is refused, and every refusal —
// segments left over included — comes before the tip is adopted, so the
// client's Latest is unchanged by a rejected path. It returns the number of
// hops the walk consumed (len(path)-1 on success).
func (c *SuperlightClient) BootstrapFromPath(path []*SegmentCert, anchorHeight uint64, anchorHash chash.Hash) (int, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("%w: empty bootstrap path", ErrSegmentUnavailable)
	}
	next := 1
	fetches, err := c.walkInterlink(func(height uint64) (*SegmentCert, error) {
		if next == len(path) {
			return nil, fmt.Errorf("%w: bootstrap path ends before height %d", ErrSegmentUnavailable, height)
		}
		next++
		return path[next-1], nil
	}, path[0], anchorHeight, anchorHash)
	if err != nil {
		return fetches, err
	}
	if next != len(path) {
		return fetches, fmt.Errorf("%w: %d segments beyond the anchor", ErrBadInterlink, len(path)-next)
	}
	return fetches, c.adoptSegment(path[0])
}

// walkInterlink is BootstrapSublinear without the adoption: it verifies the
// tip and every hop down to the anchor and returns the fetch count.
func (c *SuperlightClient) walkInterlink(fetch SegmentFetcher, tip *SegmentCert, anchorHeight uint64, anchorHash chash.Hash) (int, error) {
	if err := c.VerifySegment(tip); err != nil {
		return 0, err
	}
	if tip.End() < anchorHeight {
		return 0, fmt.Errorf("%w: tip height %d below anchor %d", ErrBadInterlink, tip.End(), anchorHeight)
	}
	fetches := 0
	cur := tip
	// 2 fetches per possible interlink level is far beyond any honest walk;
	// an adversarial fetcher cannot loop the client past this.
	for steps := 0; ; steps++ {
		if steps > 2*maxInterlinkLevels {
			return fetches, fmt.Errorf("%w: walk did not converge on anchor %d", ErrBadInterlink, anchorHeight)
		}
		start := cur.Start()
		level, target, done := nextHop(start, len(cur.Interlink), anchorHeight)
		if done {
			var refuted bool
			switch {
			case anchorHeight == 0:
				// The measurement the tip verified under binds genesis
				// (ProgramID), so the tip certificate alone certifies
				// descent from it — if the anchor is that genesis.
				refuted = enclave.Measure(ProgramID(anchorHash, c.authorityPK, c.params)) != c.measurement
			case start <= anchorHeight:
				// The current segment covers the anchor height: its
				// certified header there must BE the anchor.
				hdr := cur.HeaderAt(anchorHeight)
				refuted = hdr == nil || hdr.Hash() != anchorHash
			default:
				// The anchor immediately precedes this segment: the signed
				// PrevHash settles it.
				refuted = cur.Headers[0].PrevHash != anchorHash
			}
			if refuted {
				return fetches, fmt.Errorf("%w: anchor at height %d refuted", ErrBadInterlink, anchorHeight)
			}
			return fetches, nil
		}
		var expect chash.Hash
		switch {
		case level == 0:
			expect = cur.Headers[0].PrevHash // signed, beats the hint
		case level < len(cur.Interlink):
			expect = cur.Interlink[level]
		default:
			return fetches, fmt.Errorf("%w: segment at %d is missing interlink level %d", ErrBadInterlink, start, level)
		}
		seg, err := fetch(target)
		fetches++
		if err != nil {
			return fetches, err
		}
		if err := c.VerifySegment(seg); err != nil {
			return fetches, err
		}
		hdr := seg.HeaderAt(target)
		if hdr == nil {
			return fetches, fmt.Errorf("%w: fetched segment [%d,%d] does not cover %d", ErrBadInterlink, seg.Start(), seg.End(), target)
		}
		if hdr.Hash() != expect {
			return fetches, fmt.Errorf("%w: pointer to height %d refuted by certified segment", ErrBadInterlink, target)
		}
		cur = seg
	}
}
