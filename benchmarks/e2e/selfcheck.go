package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"
)

// selfCheck shows that verification is live: on a smoke-scale server of each
// workload it takes one genuine response of each kind the workload's client
// verifies (bundle, segment, state, historical, keyword, index anchor),
// checks that it verifies, flips one byte and requires the client to reject
// it. It fails if any tampered response is accepted.
func selfCheck(seed int64, scratch string) error {
	for _, w := range workloads {
		cfg := &runConfig{w: w.smoke(), seed: seed, smoke: true, setups: 1, scratch: scratch}
		s, err := setUp(cfg)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		err = s.selfCheck()
		if cerr := s.close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	fmt.Fprintln(os.Stderr, "selfcheck: every tampered response was rejected")
	return nil
}

// mustReject reports whether a tampered response was turned down.
func (s *session) mustReject(what string, genuine, tampered error) error {
	if genuine != nil {
		return fmt.Errorf("genuine %s did not verify: %w", what, genuine)
	}
	if tampered == nil {
		return fmt.Errorf("tampered %s was ACCEPTED", what)
	}
	fmt.Fprintf(os.Stderr, "selfcheck: %-18s %-10s rejected: %v\n", s.w.Name, what, tampered)
	return nil
}

func (s *session) selfCheck() error {
	switch {
	case s.w.Chain.Pipelined:
		return s.checkBundle()
	case s.w.Chain.SegmentK > 0:
		if err := s.checkSegment(); err != nil {
			return err
		}
		return s.checkQuery(op{Kind: opState}, s.client)
	}
	for _, o := range []op{{Kind: opState}, {Kind: opHistorical}, {Kind: opKeyword, A: 0, B: 1}} {
		if err := s.checkQuery(o, nil); err != nil {
			return err
		}
	}
	if s.w.IngestEvery > 0 {
		return s.checkAnchor()
	}
	return nil
}

// checkBundle mines one block and tampers with its certificate bundle.
func (s *session) checkBundle() error {
	certs := subscribeCerts(s.certConn)
	defer certs.Cancel()
	raw, err := s.load[0].Request(routeMine, nil)
	if err != nil {
		return err
	}
	height := binary.BigEndian.Uint64(raw)
	for {
		select {
		case msg := <-certs.C:
			b, ok := msg.Payload.(*certBundle)
			if !ok || b.Header.Height != height {
				continue
			}
			forged := *b.Header
			forged.StateRoot[7] ^= 1
			tampered := s.client.ValidateChain(&forged, b.Cert)
			return s.mustReject("bundle", s.client.ValidateChain(b.Header, b.Cert), tampered)
		case <-time.After(10 * time.Second):
			return errors.New("no certificate for the mined block")
		}
	}
}

// checkSegment bootstraps two fresh clients, one of them over a tip segment
// with one byte of a certified header flipped.
func (s *session) checkSegment() error {
	fresh := func(tamper func(*segmentCert)) error {
		cl, err := newLightClient(s.ctl)
		if err != nil {
			return err
		}
		_, _, err = bootstrapSized(s.ctl, cl, s.genesis, tamper)
		return err
	}
	tampered := fresh(func(seg *segmentCert) {
		forged := *seg.Headers[0]
		forged.TxRoot[3] ^= 1
		seg.Headers[0] = &forged
	})
	return s.mustReject("segment", fresh(nil), tampered)
}

// checkQuery fetches one query result and verifies it as received and with
// one byte flipped. cl, when set, is the client whose tip the result is
// checked against (client_bootstrap); otherwise the session's anchors are.
func (s *session) checkQuery(o op, cl *lightClient) error {
	req := s.request(o)
	body, err := fetchQuery(s.ctl, req)
	if err != nil {
		return err
	}
	a, _, _ := s.anchors.get()
	if cl != nil {
		hdr, _ := cl.Latest()
		a = &anchor{hdr: hdr}
	}
	verify := func(body []byte) error {
		check, err := parse(req, o.Kind, body)
		if err != nil {
			return err
		}
		return check(a)
	}
	forged := append([]byte(nil), body...)
	forged[len(forged)/2] ^= 1
	return s.mustReject(kindName(o.Kind), verify(body), verify(forged))
}

// checkAnchor mines one indexed block and tampers with an index root in what
// the server hands the client to adopt.
func (s *session) checkAnchor() error {
	raw, err := s.ctl.Request(routeMineIdx, nil)
	if err != nil {
		return err
	}
	msg, err := decodeAnchor(raw)
	if err != nil {
		return err
	}
	forged := *msg
	forged.Indexes = append([]indexAnchor(nil), msg.Indexes...)
	forged.Indexes[0].Root[5] ^= 1
	// The forged anchor goes first: adopting the genuine one moves the
	// client past this height.
	tampered := (&anchorSet{client: s.client}).adopt(&forged)
	if tampered == nil {
		return errors.New("tampered index anchor was ACCEPTED")
	}
	// The block certificate of the forged anchor was genuine and is adopted;
	// only its index certificates must still verify.
	var genuine error
	for _, ix := range msg.Indexes {
		if err := s.client.ValidateIndex(ix.Name, msg.Bundle.Header, ix.Root, ix.Cert); err != nil {
			genuine = err
		}
	}
	return s.mustReject("index-root", genuine, tampered)
}
