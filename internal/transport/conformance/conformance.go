// Package conformance is the executable contract of the topic fabric as a
// subscriber sees it. It is one shared table of behavior tests — ordered
// delivery per publisher, fan-out, subscriber independence, bounded-queue
// backpressure, Close/Cancel races, fault-rule semantics, and certificate
// byte-identity — run against every way to subscribe to a node's hub: in
// process (network.Network) and over the TCP wire transport. Every publish
// is made on the hub, as in a deployed node, where only the node publishes.
// A subscription passes the suite or it is not a DCert subscription; the
// two are proven interchangeable by passing identically.
package conformance

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/network"
)

// Fabric is the surface the suite exercises: the node's hub, which every
// publish and every fault control acts on, and the subscriber under test.
type Fabric struct {
	// Hub is the in-process fabric the suite publishes on.
	Hub *network.Network
	// Sub subscribes to Hub's topics: Hub itself, or a remote connection to
	// a server over it.
	Sub network.Subscriber
}

// Factory builds a fresh fabric for one subtest. Register teardown with
// t.Cleanup.
type Factory func(t *testing.T) Fabric

// waitTimeout bounds every wait in the suite. Generous because the race
// detector and loaded CI machines stretch wall-clock freely.
const waitTimeout = 10 * time.Second

// Run executes the full conformance suite against fabrics built by the
// factory. Every subtest gets a fresh fabric.
func Run(t *testing.T, newFabric Factory) {
	t.Run("OrderedDeliveryPerPublisher", func(t *testing.T) { testOrderedDelivery(t, newFabric(t)) })
	t.Run("FanOut", func(t *testing.T) { testFanOut(t, newFabric(t)) })
	t.Run("SubscriberIndependence", func(t *testing.T) { testSubscriberIndependence(t, newFabric(t)) })
	t.Run("Backpressure", func(t *testing.T) { testBackpressure(t, newFabric(t)) })
	t.Run("CancelRaces", func(t *testing.T) { testCancelRaces(t, newFabric(t)) })
	t.Run("FaultDrop", func(t *testing.T) { testFaultDrop(t, newFabric(t)) })
	t.Run("FaultDuplicate", func(t *testing.T) { testFaultDuplicate(t, newFabric(t)) })
	t.Run("PartitionHeal", func(t *testing.T) { testPartitionHeal(t, newFabric(t)) })
	t.Run("CertBundleByteIdentity", func(t *testing.T) { testCertBundleByteIdentity(t, newFabric(t)) })
}

// seq renders a sequence number as a wire payload.
func seq(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// seqOf parses a sequence payload.
func seqOf(t *testing.T, m network.Message) int {
	t.Helper()
	b, ok := m.Payload.([]byte)
	if !ok || len(b) != 8 {
		t.Fatalf("payload %T %v, want 8-byte sequence", m.Payload, m.Payload)
	}
	return int(binary.BigEndian.Uint64(b))
}

// waitFor polls until cond holds or the suite timeout expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// collect drains exactly n messages from the subscription.
func collect(t *testing.T, sub *network.Subscription, n int) []network.Message {
	t.Helper()
	out := make([]network.Message, 0, n)
	timer := time.NewTimer(waitTimeout)
	defer timer.Stop()
	for len(out) < n {
		select {
		case m, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d of %d messages", len(out), n)
			}
			out = append(out, m)
		case <-timer.C:
			t.Fatalf("timed out after %d of %d messages", len(out), n)
		}
	}
	return out
}

// testOrderedDelivery interleaves two publishers on one topic: each
// subscriber must observe every publisher's messages in publish order.
func testOrderedDelivery(t *testing.T, f Fabric) {
	const topic = "conformance-order"
	const perPublisher = 50
	sub := f.Sub.Subscribe(topic, 4*perPublisher)
	defer sub.Cancel()

	var wg sync.WaitGroup
	for _, from := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(from string) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if err := f.Hub.Publish(topic, from, seq(i)); err != nil {
					t.Errorf("publish %s/%d: %v", from, i, err)
					return
				}
			}
		}(from)
	}
	wg.Wait()

	got := collect(t, sub, 2*perPublisher)
	next := map[string]int{"alice": 0, "bob": 0}
	for _, m := range got {
		want := next[m.From]
		if s := seqOf(t, m); s != want {
			t.Fatalf("publisher %s: got seq %d, want %d (per-publisher order violated)", m.From, s, want)
		}
		next[m.From]++
	}
}

// testFanOut publishes once and requires every current subscriber to see
// the full stream in order.
func testFanOut(t *testing.T, f Fabric) {
	const topic = "conformance-fanout"
	const n = 40
	subs := make([]*network.Subscription, 3)
	for i := range subs {
		subs[i] = f.Sub.Subscribe(topic, 2*n)
		defer subs[i].Cancel()
	}
	for i := 0; i < n; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for si, sub := range subs {
		for i, m := range collect(t, sub, n) {
			if s := seqOf(t, m); s != i {
				t.Fatalf("subscriber %d: got seq %d at position %d", si, s, i)
			}
		}
	}
}

// testSubscriberIndependence cancels one subscriber mid-stream; the
// survivor must still receive everything, and the cancelled channel must
// close without disturbing the stream.
func testSubscriberIndependence(t *testing.T, f Fabric) {
	const topic = "conformance-independence"
	const n = 40
	keeper := f.Sub.Subscribe(topic, 2*n)
	defer keeper.Cancel()
	quitter := f.Sub.Subscribe(topic, 2*n)

	for i := 0; i < n/2; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	quitter.Cancel()
	for i := n / 2; i < n; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	for i, m := range collect(t, keeper, n) {
		if s := seqOf(t, m); s != i {
			t.Fatalf("keeper: got seq %d at position %d", s, i)
		}
	}
	waitFor(t, "quitter channel close", func() bool {
		for {
			select {
			case _, ok := <-quitter.C:
				if !ok {
					return true
				}
			default:
				return false
			}
		}
	})
}

// testBackpressure stuffs a small-depth subscriber far past capacity: the
// publisher must never block, the subscriber must retain exactly its queue
// depth, and the retained messages must be an in-order subsequence of the
// published stream starting at its head.
func testBackpressure(t *testing.T, f Fabric) {
	const topic = "conformance-backpressure"
	const depth = 4
	const n = 64
	sub := f.Sub.Subscribe(topic, depth)
	defer sub.Cancel()

	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f.Hub.Publish(topic, "firehose", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > waitTimeout {
		t.Fatalf("publisher blocked on a slow subscriber: %d publishes took %v", n, elapsed)
	}

	waitFor(t, "queue to fill to depth", func() bool { return len(sub.C) == depth })
	prev := -1
	for i, m := range collect(t, sub, depth) {
		s := seqOf(t, m)
		if i == 0 && s != 0 {
			t.Fatalf("first retained message has seq %d, want 0 (head of stream)", s)
		}
		if s <= prev || s >= n {
			t.Fatalf("retained seq %d after %d: not an in-order subsequence", s, prev)
		}
		prev = s
	}
}

// testCancelRaces hammers Subscribe/Cancel/Publish concurrently, including
// double-Cancel; the fabric must neither deadlock nor corrupt (the suite
// runs under -race in tier 2).
func testCancelRaces(t *testing.T, f Fabric) {
	const topic = "conformance-races"
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			f.Hub.Publish(topic, "pub", seq(i))
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub := f.Sub.Subscribe(topic, 2)
				// Drain a little, then cancel twice, concurrently with
				// in-flight deliveries.
				select {
				case <-sub.C:
				default:
				}
				done := make(chan struct{})
				go func() { sub.Cancel(); close(done) }()
				sub.Cancel()
				<-done
			}
		}()
	}
	wg.Wait()
}

// testFaultDrop installs a total-loss rule: the tally must account every
// publish as dropped and nothing may be delivered.
func testFaultDrop(t *testing.T, f Fabric) {
	const topic = "conformance-drop"
	const n = 25
	f.Hub.SetFaults(&network.FaultPlan{Seed: 1, Rules: []network.FaultRule{{Topic: topic, Drop: 1.0}}})
	sub := f.Sub.Subscribe(topic, 2*n)
	defer sub.Cancel()

	for i := 0; i < n; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	tally := f.Hub.FaultTally(topic)
	if tally.Published != n || tally.Dropped != n {
		t.Fatalf("tally = %+v, want %d published and %d dropped", tally, n, n)
	}
	if got := len(sub.C); got != 0 {
		t.Fatalf("%d messages delivered through a total-drop rule", got)
	}
	// A remote subscriber may still have a wrongly forwarded message on the
	// wire. Lift the rule and publish a sentinel: delivery is ordered, so the
	// sentinel must be the first message to arrive.
	f.Hub.SetFaults(nil)
	if err := f.Hub.Publish(topic, "pub", seq(n)); err != nil {
		t.Fatalf("publish sentinel: %v", err)
	}
	if s := seqOf(t, collect(t, sub, 1)[0]); s != n {
		t.Fatalf("seq %d delivered through a total-drop rule, ahead of the sentinel", s)
	}
}

// testFaultDuplicate installs a total-duplication rule: every publish must
// arrive exactly twice.
func testFaultDuplicate(t *testing.T, f Fabric) {
	const topic = "conformance-duplicate"
	const n = 20
	f.Hub.SetFaults(&network.FaultPlan{Seed: 2, Rules: []network.FaultRule{{Topic: topic, Duplicate: 1.0}}})
	sub := f.Sub.Subscribe(topic, 8*n)
	defer sub.Cancel()

	for i := 0; i < n; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	tally := f.Hub.FaultTally(topic)
	if tally.Published != n || tally.Duplicated != n {
		t.Fatalf("tally = %+v, want %d published and %d duplicated", tally, n, n)
	}

	counts := make(map[int]int)
	for _, m := range collect(t, sub, 2*n) {
		counts[seqOf(t, m)]++
	}
	for i := 0; i < n; i++ {
		if counts[i] != 2 {
			t.Fatalf("seq %d delivered %d times, want exactly 2", i, counts[i])
		}
	}
}

// testPartitionHeal cuts a topic, loses everything published meanwhile, and
// verifies delivery resumes after Heal.
func testPartitionHeal(t *testing.T, f Fabric) {
	const topic = "conformance-partition"
	const n = 15
	f.Hub.SetFaults(&network.FaultPlan{Seed: 3}) // partitions require a plan
	sub := f.Sub.Subscribe(topic, 4*n)
	defer sub.Cancel()

	f.Hub.Partition(topic)
	for i := 0; i < n; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if tally := f.Hub.FaultTally(topic); tally.Partitioned != n {
		t.Fatalf("tally = %+v, want %d partitioned", tally, n)
	}
	if got := len(sub.C); got != 0 {
		t.Fatalf("%d messages crossed an active partition", got)
	}
	// Over a socket a wrongly forwarded message may still be in flight here;
	// the ordered collect after the heal is the barrier that catches it, as
	// it would arrive ahead of seq n.

	f.Hub.Heal(topic)
	for i := n; i < 2*n; i++ {
		if err := f.Hub.Publish(topic, "pub", seq(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for i, m := range collect(t, sub, n) {
		if s := seqOf(t, m); s != n+i {
			t.Fatalf("after heal: got seq %d at position %d, want %d", s, i, n+i)
		}
	}
}

// testCertBundleByteIdentity publishes the certificate stream's vocabulary —
// a cert bundle and a K=2 segment certificate — and requires the received
// values to marshal byte-identically to the sent ones, whatever the fabric
// did in between. This is the acceptance bar for the wire payload codec: a
// certificate fetched over sockets is the same certificate, bit for bit.
func testCertBundleByteIdentity(t *testing.T, f Fabric) {
	hdr := func(height uint64, prev chash.Hash) *chain.Header {
		return &chain.Header{
			Height:    height,
			PrevHash:  prev,
			StateRoot: chash.Sum(chash.DomainHeader, []byte("state")),
			TxRoot:    chash.Sum(chash.DomainHeader, []byte("tx")),
			Time:      1700000000,
			Consensus: chain.ConsensusProof{Nonce: 42, Difficulty: 8},
		}
	}
	cert := &core.Certificate{
		PubKey: []byte("der-encoded-public-key"),
		Report: &attest.Report{
			Measurement: chash.Sum(chash.DomainHeader, []byte("measurement")),
			ReportData:  chash.Sum(chash.DomainHeader, []byte("report-data")),
			PlatformID:  "sim-platform",
			CertChain:   []byte("certificate-chain"),
			Signature:   []byte("authority-signature"),
		},
		Digest: chash.Sum(chash.DomainHeader, []byte("digest")),
		Sig:    []byte("enclave-signature"),
	}
	prev := chash.Sum(chash.DomainHeader, []byte("prev"))
	bundle := &core.CertBundle{Header: hdr(7, prev), Cert: cert}
	first := hdr(8, bundle.Header.Hash())
	seg := &core.SegmentCert{
		Headers:   []*chain.Header{first, hdr(9, first.Hash())},
		Cert:      cert,
		Interlink: []chash.Hash{first.PrevHash, prev},
	}

	sub := f.Sub.Subscribe(network.TopicCerts, 4)
	defer sub.Cancel()
	if err := f.Hub.Publish(network.TopicCerts, "ci", bundle); err != nil {
		t.Fatalf("publish bundle: %v", err)
	}
	if err := f.Hub.Publish(network.TopicCerts, "ci", seg); err != nil {
		t.Fatalf("publish segment: %v", err)
	}

	got := collect(t, sub, 2)
	gotBundle, ok := got[0].Payload.(*core.CertBundle)
	if !ok {
		t.Fatalf("cert payload arrived as %T, want *core.CertBundle", got[0].Payload)
	}
	if !bytes.Equal(gotBundle.Cert.Marshal(), bundle.Cert.Marshal()) {
		t.Fatalf("certificate bytes changed in transit")
	}
	if !bytes.Equal(gotBundle.Header.Marshal(), bundle.Header.Marshal()) {
		t.Fatalf("bundle header bytes changed in transit")
	}
	gotSeg, ok := got[1].Payload.(*core.SegmentCert)
	if !ok {
		t.Fatalf("segment payload arrived as %T, want *core.SegmentCert", got[1].Payload)
	}
	if !bytes.Equal(gotSeg.Marshal(), seg.Marshal()) {
		t.Fatalf("segment bytes changed in transit")
	}
}
