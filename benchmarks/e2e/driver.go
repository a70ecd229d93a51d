package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcert/internal/chash"
)

// childEnv carries the server child's arguments: a process started with it
// set is the server, whatever binary it is (the tests re-exec the test
// binary).
const childEnv = "DCERT_E2E_CHILD"

// runConfig is one benchmark run.
type runConfig struct {
	w    *workload
	seed int64
	// seconds bounds the measured phase by time; maxOps, when set, bounds it
	// by operation count instead (smoke runs, where counts must repeat).
	seconds float64
	maxOps  int64
	// setups is how many times the server is set up; the last one is
	// measured and setup_s is the median over all of them.
	setups  int
	smoke   bool
	scratch string
	tr      *tracer
}

// child is a running server process, seen from the driver.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
	dir   string
}

func startChild(cfg *runConfig) (*child, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "data-")
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %t %s", childEnv, cfg.w.Name, cfg.w.chainSeed(cfg.seed), cfg.smoke, dir))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, dir: dir}
	if c.addr, err = readReady(stdout); err != nil {
		c.stop()
		return nil, err
	}
	go io.Copy(io.Discard, stdout) // ends when the child exits
	return c, nil
}

// stop closes the child's stdin, waits for it to exit and removes its data.
func (c *child) stop() error {
	c.stdin.Close()
	err := c.cmd.Wait()
	os.RemoveAll(c.dir)
	return err
}

// childMain is the server side of startChild.
func childMain(arg string) error {
	f := strings.SplitN(arg, " ", 4)
	if len(f) != 4 {
		return fmt.Errorf("bad %s", childEnv)
	}
	w, err := workloadByName(f[0])
	if err != nil {
		return err
	}
	seed, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return err
	}
	if f[2] == "true" {
		w = w.smoke()
	}
	return serveChild(w, seed, f[3])
}

// anchor is a certified header and the index roots certified at it, as read
// back from the client after the client validated their certificates.
type anchor struct {
	hdr   *header
	roots map[string]chash.Hash
}

// anchorSet holds the current and the previous anchor. Replies are verified
// against these and nothing else, and adopt is the only writer, so every
// verified reply is verified against something the client validated itself.
type anchorSet struct {
	client *lightClient
	mu     sync.Mutex
	cur    *anchor
	prev   *anchor
	// changed is closed when a newer anchor arrives.
	changed chan struct{}
}

// adopt has the client validate a block's certificates and then reads the
// client's own state back as the new current anchor.
func (s *anchorSet) adopt(msg *anchorMsg) error {
	if err := s.client.ValidateChain(msg.Bundle.Header, msg.Bundle.Cert); err != nil {
		return fmt.Errorf("block certificate at height %d: %w", msg.Bundle.Header.Height, err)
	}
	for _, ix := range msg.Indexes {
		if err := s.client.ValidateIndex(ix.Name, msg.Bundle.Header, ix.Root, ix.Cert); err != nil {
			return fmt.Errorf("index %s certificate at height %d: %w", ix.Name, msg.Bundle.Header.Height, err)
		}
	}
	s.fromClient()
	return nil
}

// fromClient makes the client's validated tip the current anchor.
func (s *anchorSet) fromClient() {
	hdr, _ := s.client.Latest()
	a := &anchor{hdr: hdr, roots: map[string]chash.Hash{}}
	for _, name := range []string{histIndex, kwIndex} {
		if root, height, err := s.client.IndexRoot(name); err == nil && height == hdr.Height {
			a.roots[name] = root
		}
	}
	s.mu.Lock()
	s.prev, s.cur = s.cur, a
	if s.changed != nil {
		close(s.changed)
	}
	s.changed = make(chan struct{})
	s.mu.Unlock()
}

func (s *anchorSet) get() (cur, prev *anchor, changed <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.prev, s.changed
}

// session is one set-up server with the driver's connections to it.
type session struct {
	cfg     *runConfig
	w       *workload
	child   *child
	ctl     *conn   // idle control connection
	load    []*conn // closed-loop load connections
	client  *lightClient
	anchors *anchorSet
	setup   time.Duration

	keys   []string // written state keys, sorted
	tokens []string // keyword-index tokens of those keys
	ops    []op

	// cert_stream: the connection the certificate stream arrives on.
	certConn *conn
	// client_bootstrap: the pinned genesis hash, the segment bytes one
	// bootstrap fetches, and the fetch count the interlink model predicts.
	genesis     chash.Hash
	bootBytes   int
	bootFetches int
	// historical queries ask this version window.
	histLo, histHi uint64
	// storageAtStart is the client's storage right after it was anchored.
	storageAtStart int
}

// setUp starts a server and anchors a client on it. The time it takes is the
// workload's setup_s: driver start to server ready, chain built, trust
// anchors fetched and the first certificate validated.
func setUp(cfg *runConfig) (s *session, err error) {
	began := time.Now()
	s = &session{cfg: cfg, w: cfg.w}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.child, err = startChild(cfg); err != nil {
		return s, fmt.Errorf("start server: %w", err)
	}
	if s.ctl, err = dial(s.child.addr, "bench-control"); err != nil {
		return s, err
	}
	if s.client, err = newLightClient(s.ctl); err != nil {
		return s, err
	}
	s.anchors = &anchorSet{client: s.client}
	st, err := s.serverStats()
	if err != nil {
		return s, err
	}
	raw, err := s.ctl.Request(routeKeys, nil)
	if err != nil {
		return s, err
	}
	s.keys = strings.Split(string(raw), "\n")
	s.tokens = tokensOf(s.keys)

	switch {
	case s.w.Chain.Pipelined:
		if s.certConn, err = dial(s.child.addr, "bench-certs"); err != nil {
			return s, err
		}
		b, err := latestBundle(s.ctl)
		if err != nil {
			return s, err
		}
		if b == nil {
			return s, errors.New("server has no certificate after set-up")
		}
		if err := s.client.ValidateChain(b.Header, b.Cert); err != nil {
			return s, fmt.Errorf("first certificate: %w", err)
		}
	case s.w.Chain.SegmentK > 0:
		if s.genesis, err = genesisHash(s.ctl); err != nil {
			return s, err
		}
		s.bootFetches, s.bootBytes, err = bootstrapSized(s.ctl, s.client, s.genesis, nil)
		if err != nil {
			return s, fmt.Errorf("bootstrap: %w", err)
		}
		// The model counts the hops; the tip segment is one more fetch.
		if want := modelFetches(st.Height, s.w.Chain.SegmentK) + 1; s.bootFetches != want {
			return s, fmt.Errorf("bootstrap took %d fetches, the interlink model says %d", s.bootFetches, want)
		}
	case s.w.Chain.Indexed:
		raw, err := s.ctl.Request(routeAnchor, nil)
		if err != nil {
			return s, err
		}
		msg, err := decodeAnchor(raw)
		if err != nil {
			return s, err
		}
		if err := s.anchors.adopt(msg); err != nil {
			return s, err
		}
		s.histHi = st.Height
		s.histLo = s.histHi - min(s.histHi, histWindow) + 1
	}
	s.ops = s.w.genOps(cfg.seed, len(s.keys))
	for i := 0; i < min(s.w.Conns, runtime.NumCPU()); i++ {
		c, err := dial(s.child.addr, fmt.Sprintf("bench-load-%d", i))
		if err != nil {
			return s, err
		}
		s.load = append(s.load, c)
	}
	s.storageAtStart = s.client.StorageSize()
	s.setup = time.Since(began)
	return s, nil
}

func (s *session) close() error {
	for _, c := range s.load {
		c.Close()
	}
	if s.certConn != nil {
		s.certConn.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.child != nil {
		return s.child.stop()
	}
	return nil
}

func (s *session) serverStats() (*serverStats, error) {
	raw, err := s.ctl.Request(routeStats, nil)
	if err != nil {
		return nil, err
	}
	var st serverStats
	return &st, json.Unmarshal(raw, &st)
}

// tokensOf lists the distinct keyword-index tokens of the written keys: the
// number that ends ct/KV-<c>/kv/user-key-<n>, where the index keeps it (it
// drops tokens shorter than three characters).
func tokensOf(keys []string) []string {
	seen := map[string]struct{}{}
	for _, k := range keys {
		if n := k[strings.LastIndexByte(k, '-')+1:]; len(n) >= 3 {
			seen[n] = struct{}{}
		}
	}
	return sortedKeys(seen)
}

// cpuMark is the CPU both processes have used up to one instant, at ns into
// the run.
type cpuMark struct {
	at             int64
	client, server float64
	stats          *serverStats
}

func (s *session) mark(t0 time.Time) (cpuMark, error) {
	st, err := s.serverStats()
	if err != nil {
		return cpuMark{}, err
	}
	return cpuMark{at: int64(time.Since(t0)), client: selfCPUSeconds(), server: st.CPUSeconds, stats: st}, nil
}

// measured is what one measured phase produced.
type measured struct {
	// marks cut the measured phase into slices: the first is taken when
	// warm-up ends, the last when the phase ends. A time-bounded closed loop
	// takes eleven, everything else two.
	marks []cpuMark
	// samples are the operations verified after warm-up, by completion time.
	// On cert_stream they are the saturation phase's blocks (lat unused) and
	// latMs holds the latency phase's latencies; elsewhere latMs is empty and
	// the latencies are the samples' own.
	samples []sample
	latMs   []float64
	// end is the server's state when the run ended.
	end *serverStats

	attempted int
	failed    int
	firstErr  error
	bytes     int64     // payload bytes received by verified operations
	verified  int64     // operations verified, warm-up included
	retries   int64     // verifications that waited for a newer certificate
	lateMs    []float64 // open-loop generator lateness per block
}

// reply is a parsed query result that can be checked against an anchor.
type reply func(a *anchor) error

// request builds the query of one operation.
func (s *session) request(o op) *queryRequest {
	switch o.Kind {
	case opHistorical:
		return histRequest(s.keys[o.A], s.histLo, s.histHi)
	case opKeyword:
		a, b := int(o.A)%len(s.tokens), int(o.B)%len(s.tokens)
		if a == b {
			b = (b + 1) % len(s.tokens)
		}
		return keywordRequest(s.tokens[a], s.tokens[b])
	default:
		return stateRequest(s.keys[o.A])
	}
}

// parse decodes a result body and binds it to the request it must answer.
func parse(req *queryRequest, kind byte, body []byte) (reply, error) {
	switch kind {
	case opHistorical:
		r, err := parseHist(body)
		if err != nil {
			return nil, err
		}
		if r.Key != req.Key || r.Lo != req.Lo || r.Hi != req.Hi {
			return nil, errors.New("historical result answers another question")
		}
		return func(a *anchor) error {
			root, ok := a.roots[histIndex]
			if !ok {
				return errors.New("no certified root for the historical index")
			}
			return verifyHist(root, r)
		}, nil
	case opKeyword:
		r, err := parseKeyword(body)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(r.Keywords, req.Keywords) {
			return nil, errors.New("keyword result answers another question")
		}
		return func(a *anchor) error {
			root, ok := a.roots[kwIndex]
			if !ok {
				return errors.New("no certified root for the keyword index")
			}
			return verifyKeyword(root, r)
		}, nil
	default:
		r, err := parseState(body)
		if err != nil {
			return nil, err
		}
		if r.Key != req.Key {
			return nil, errors.New("state result answers another key")
		}
		return func(a *anchor) error { return verifyState(a.hdr, r) }, nil
	}
}

// staleWait is how long a reply proven against a block the client has no
// certificate for yet may wait for that certificate.
const staleWait = time.Second

// query runs one verified query: send, parse, verify against the current or
// the previous anchor. A reply that verifies against neither may be ahead of
// the client; it waits for the next certificate and is tried once more.
func (s *session) query(c *conn, opID int64, o op) (bytes int, retried bool, err error) {
	tr := s.cfg.tr
	root := tr.start("op."+kindName(o.Kind), opID, 0)
	defer root.end()
	req := s.request(o)
	sp := tr.start("transport.query_rtt", opID, root.id)
	body, err := fetchQuery(c, req)
	sp.end()
	if err != nil {
		return 0, false, err
	}
	sp = tr.start("query.decode", opID, root.id)
	check, err := parse(req, o.Kind, body)
	sp.end()
	if err != nil {
		return 0, false, err
	}
	sp = tr.start("query.verify_"+kindName(o.Kind), opID, root.id)
	defer sp.end()
	cur, prev, changed := s.anchors.get()
	if err = check(cur); err == nil {
		return len(body), false, nil
	}
	if prev != nil && check(prev) == nil {
		return len(body), false, nil
	}
	select {
	case <-changed:
		cur, _, _ = s.anchors.get()
		return len(body), true, check(cur)
	case <-time.After(staleWait):
		return 0, true, fmt.Errorf("verified against neither anchor (height %d): %w", cur.hdr.Height, err)
	}
}

func kindName(k byte) string {
	switch k {
	case opState:
		return "state"
	case opHistorical:
		return "historical"
	case opKeyword:
		return "keyword"
	case opBootstrap:
		return "bootstrap"
	default:
		return "block"
	}
}

// bootstrapOp is one client_bootstrap operation: a fresh client takes the
// node's anchors, walks the interlink from genesis to the tip, and reads one
// state key against the tip it has just validated.
func (s *session) bootstrapOp(c *conn, opID int64, o op) (bytes int, err error) {
	tr := s.cfg.tr
	root := tr.start("op.bootstrap", opID, 0)
	defer root.end()
	sp := tr.start("transport.rpc_rtt", opID, root.id)
	cl, err := newLightClient(c)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = tr.start("core.bootstrap", opID, root.id)
	fetches, err := bootstrap(c, cl, s.genesis)
	sp.end()
	if err != nil {
		return 0, err
	}
	if fetches != s.bootFetches {
		return 0, fmt.Errorf("bootstrap took %d fetches, want %d", fetches, s.bootFetches)
	}
	hdr, _ := cl.Latest()
	req := stateRequest(s.keys[o.A])
	sp = tr.start("transport.query_rtt", opID, root.id)
	body, err := fetchQuery(c, req)
	sp.end()
	if err != nil {
		return 0, err
	}
	check, err := parse(req, opState, body)
	if err != nil {
		return 0, err
	}
	sp = tr.start("query.verify_state", opID, root.id)
	err = check(&anchor{hdr: hdr})
	sp.end()
	return s.bootBytes + len(body), err
}

// closedLoop runs the operation list on the load connections, each sending
// its next operation when the previous one is verified. It stops at the
// run's time or operation bound. The first tenth is warm-up.
func (s *session) closedLoop() (*measured, error) {
	cfg := s.cfg
	dur := time.Duration(cfg.seconds * float64(time.Second))
	warmOps := cfg.maxOps / 10
	var next atomic.Int64
	warmCh := make(chan struct{})
	// One signal per IngestEvery operations; sized so that a sender never
	// waits for the miner (a run stays far below 4096 blocks).
	ingestCh := make(chan struct{}, 4096)

	type workerOut struct {
		samples           []sample
		bytes, retries    int64
		attempted, failed int
		firstErr          error
	}
	outs := make([]workerOut, len(s.load))
	t0 := time.Now()
	var wg sync.WaitGroup
	for wi, c := range s.load {
		wg.Add(1)
		go func(out *workerOut, c *conn) {
			defer wg.Done()
			out.samples = make([]sample, 0, 1<<16)
			for {
				i := next.Add(1) - 1
				if cfg.maxOps > 0 && i >= cfg.maxOps {
					return
				}
				start := time.Now()
				if dur > 0 && start.Sub(t0) >= dur {
					return
				}
				o := s.ops[i%int64(len(s.ops))]
				var n int
				var retried bool
				var err error
				if o.Kind == opBootstrap {
					n, err = s.bootstrapOp(c, i+1, o)
				} else {
					n, retried, err = s.query(c, i+1, o)
				}
				end := time.Now()
				out.attempted++
				if retried {
					out.retries++
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("op %d (%s): %w", i, kindName(o.Kind), err)
					}
				} else {
					out.bytes += int64(n)
					out.samples = append(out.samples, sample{done: int64(end.Sub(t0)), lat: int64(end.Sub(start))})
				}
				if warmOps > 0 && i+1 == warmOps {
					close(warmCh) // i is unique, so this runs once
				}
				if s.w.IngestEvery > 0 && (i+1)%int64(s.w.IngestEvery) == 0 {
					ingestCh <- struct{}{}
				}
			}
		}(&outs[wi], c)
	}

	// The control connection mines beside the reads and adopts each new
	// block's certificates.
	var ingestErr error
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		for range ingestCh {
			if ingestErr != nil {
				continue
			}
			raw, err := s.ctl.Request(routeMineIdx, nil)
			if err != nil {
				ingestErr = err
				continue
			}
			msg, err := decodeAnchor(raw)
			if err == nil {
				err = s.anchors.adopt(msg)
			}
			ingestErr = err
		}
	}()

	m := &measured{}
	var warmTimer <-chan time.Time
	if dur > 0 {
		warmTimer = time.After(dur / 10)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-warmCh:
	case <-warmTimer:
	case <-workersDone:
	}
	// A time-bounded run is cut into ten equal slices after warm-up, so that
	// CPU and latency can be reported as medians over slices, as the rate is.
	// The first mark is the end of warm-up, the last the end of the run.
	cuts := 1
	if dur > 0 {
		cuts = 10
	}
	for k := 0; k <= cuts; k++ {
		switch {
		case k == cuts:
			<-workersDone
		case k > 0:
			select {
			case <-time.After(time.Until(t0.Add(dur/10 + time.Duration(k)*(dur-dur/10)/10))):
			case <-workersDone:
			}
		}
		mk, err := s.mark(t0)
		if err != nil {
			return nil, err
		}
		m.marks = append(m.marks, mk)
	}
	close(ingestCh)
	<-ingestDone
	if ingestErr != nil {
		return nil, fmt.Errorf("ingest: %w", ingestErr)
	}

	for _, out := range outs {
		m.attempted += out.attempted
		m.failed += out.failed
		m.bytes += out.bytes
		m.retries += out.retries
		m.verified += int64(len(out.samples))
		if m.firstErr == nil {
			m.firstErr = out.firstErr
		}
		for _, sm := range out.samples {
			if sm.done > m.marks[0].at {
				m.samples = append(m.samples, sm)
			}
		}
	}
	sort.Slice(m.samples, func(i, j int) bool { return m.samples[i].done < m.samples[j].done })
	m.end = m.marks[len(m.marks)-1].stats
	return m, nil
}

// certStream measures the certification path in two phases on one chain.
// Saturation: blocks are submitted closed-loop (the pipeline's backpressure
// is the window) and the rate at which the client validates certificates is
// the throughput. Latency: blocks are submitted open-loop at the workload's
// fixed rate and each is timed from when it was due to when the client has
// validated its certificate.
func (s *session) certStream() (*measured, error) {
	cfg := s.cfg
	tr := cfg.tr
	m := &measured{}
	total := time.Duration(cfg.seconds * float64(time.Second))
	satDur := time.Duration(float64(total) * saturationShare)
	satBlocks, latBlocks := int64(0), int64(0)
	if cfg.maxOps > 0 {
		satBlocks = cfg.maxOps / 2
		latBlocks = cfg.maxOps - satBlocks
	}
	hdr, _ := s.client.Latest()
	base := hdr.Height

	// validated[h-base-1] is when the client validated block h's
	// certificate, in ns since t0; the subscriber goroutine fills it.
	certs := subscribeCerts(s.certConn)
	t0 := time.Now()
	var mu sync.Mutex
	var validated []int64
	arrived := make(chan struct{}, 1)
	var subErr error
	subDone := make(chan struct{})
	defer func() {
		certs.Cancel()
		<-subDone
	}()
	go func() {
		defer close(subDone)
		for msg := range certs.C {
			b, ok := msg.Payload.(*certBundle)
			if !ok || b.Header.Height <= base {
				continue
			}
			opID := int64(b.Header.Height - base)
			sp := tr.start("core.client_validate", opID, 0)
			err := s.client.ValidateChain(b.Header, b.Cert)
			sp.end()
			now := int64(time.Since(t0))
			mu.Lock()
			if err != nil && subErr == nil {
				subErr = fmt.Errorf("certificate at height %d: %w", b.Header.Height, err)
			}
			if err == nil {
				for uint64(len(validated)) < b.Header.Height-base {
					validated = append(validated, 0)
				}
				validated[b.Header.Height-base-1] = now
				m.bytes += int64(b.Header.EncodedSize() + b.Cert.EncodedSize())
				m.verified++
			}
			mu.Unlock()
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
	}()
	// waitFor blocks until n certificates are validated.
	waitFor := func(n int64) error {
		deadline := time.After(30 * time.Second)
		for {
			mu.Lock()
			got, err := m.verified, subErr
			mu.Unlock()
			if err != nil {
				return err
			}
			if got >= n {
				return nil
			}
			select {
			case <-arrived:
			case <-deadline:
				return fmt.Errorf("%d of %d certificates arrived", got, n)
			}
		}
	}
	mine := func(opID int64) error {
		sp := tr.start("submit", opID, 0)
		defer sp.end()
		raw, err := s.load[0].Request(routeMine, nil)
		if err != nil {
			return err
		}
		if got := binary.BigEndian.Uint64(raw); got != base+uint64(opID) {
			return fmt.Errorf("mined height %d, want %d", got, base+uint64(opID))
		}
		return nil
	}

	// Saturation phase.
	var sent int64
	var satFrom int64 // index of the first block after warm-up
	marked := false
	for {
		el := time.Since(t0)
		if (satBlocks > 0 && sent >= satBlocks) || (satBlocks == 0 && el >= satDur) {
			break
		}
		if !marked && ((satBlocks > 0 && sent >= satBlocks/10) || (satBlocks == 0 && el >= total/10)) {
			mk, err := s.mark(t0)
			if err != nil {
				return nil, err
			}
			m.marks = append(m.marks, mk)
			mu.Lock()
			satFrom = m.verified
			mu.Unlock()
			marked = true
		}
		sent++
		if err := mine(sent); err != nil {
			return nil, err
		}
	}
	if err := waitFor(sent); err != nil {
		return nil, err
	}
	// CPU per block is taken over the saturation phase alone: in the latency
	// phase both processes mostly wait, and what they spend waiting is not
	// the cost of a block.
	mk, err := s.mark(t0)
	if err != nil {
		return nil, err
	}
	m.marks = append(m.marks, mk)
	satSent := sent
	mu.Lock()
	for _, at := range validated[satFrom:satSent] {
		m.samples = append(m.samples, sample{done: at})
	}
	mu.Unlock()

	// Latency phase.
	latDur := total - time.Since(t0)
	interval := time.Duration(float64(time.Second) / s.w.StreamRate)
	if latBlocks == 0 {
		latBlocks = int64(latDur / interval)
	}
	lat0 := time.Now()
	due := make([]time.Time, latBlocks)
	for i := range due {
		due[i] = lat0.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due[i]))
		m.lateMs = append(m.lateMs, float64(time.Since(due[i]))/1e6)
		sent++
		if err := mine(sent); err != nil {
			return nil, err
		}
	}
	if err := waitFor(sent); err != nil {
		return nil, err
	}
	if m.end, err = s.serverStats(); err != nil {
		return nil, err
	}
	mu.Lock()
	for i := range due {
		m.latMs = append(m.latMs, float64(validated[satSent+int64(i)]-int64(due[i].Sub(t0)))/1e6)
	}
	mu.Unlock()
	m.attempted = int(sent)
	return m, nil
}
