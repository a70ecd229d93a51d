// Package network provides the simulated peer-to-peer message fabric that
// connects the DCert node roles (miner, certificate issuer, service
// provider, clients) in examples and integration tests. It is a topic-based
// publish/subscribe bus with optional simulated propagation latency and a
// deterministic fault-injection layer (seeded drop/duplicate/reorder/jitter
// rules plus healable topic partitions, see FaultPlan) — enough to exercise
// the certification workflow of Fig. 2 end to end, including its behavior
// under adversarial delivery, without real sockets.
package network

import (
	"errors"
	"sync"
	"time"
)

// Package errors.
var (
	// ErrClosed is returned when publishing on a closed network.
	ErrClosed = errors.New("network: closed")
)

// TopicCerts is the one topic of the DCert certification workflow (Fig. 2):
// the certificate stream, CI → clients.
const TopicCerts = "certs"

// Message is one published datum.
type Message struct {
	// Topic is the channel the message was published on.
	Topic string
	// From identifies the publisher.
	From string
	// Payload is the message body (shared, treat as immutable).
	Payload any
}

// Network is an in-memory pub/sub fabric.
//
// Network is safe for concurrent use.
type Network struct {
	mu      sync.Mutex
	subs    map[string][]*Subscription
	latency time.Duration
	faults  *faultState
	obs     *netObs
	closed  bool
	wg      sync.WaitGroup
}

// Option configures a Network.
type Option func(*Network)

// WithLatency adds a fixed simulated propagation delay to every delivery.
func WithLatency(d time.Duration) Option {
	return func(n *Network) {
		n.latency = d
	}
}

// New creates a network fabric.
func New(opts ...Option) *Network {
	n := &Network{subs: make(map[string][]*Subscription)}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Subscription is one subscriber's inbound queue. It is minted either by
// Network.Subscribe (attached to the in-process fabric) or by
// NewDetachedSubscription (fed by a wire transport).
type Subscription struct {
	// C delivers messages in publish order (per publisher).
	C <-chan Message

	net      *Network // nil for detached subscriptions
	topic    string
	ch       chan Message
	cancel   sync.Once
	onCancel func() // transport teardown hook, nil when attached

	// mu guards closed so in-flight deliveries never race Cancel's close of
	// ch (a concurrent Publish must not send on a closed channel).
	mu     sync.Mutex
	closed bool
}

// Cancel removes the subscription and closes C.
func (s *Subscription) Cancel() {
	s.cancel.Do(func() {
		if s.net != nil {
			s.net.remove(s)
		}
		s.mu.Lock()
		s.closed = true
		close(s.ch)
		s.mu.Unlock()
		if s.onCancel != nil {
			s.onCancel()
		}
	})
}

// Subscribe registers for a topic with the given queue depth. Messages that
// would overflow a subscriber's queue are dropped for that subscriber (as a
// slow real peer would miss gossip).
func (n *Network) Subscribe(topic string, depth int) *Subscription {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan Message, depth)
	s := &Subscription{C: ch, net: n, topic: topic, ch: ch}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.subs[topic] = append(n.subs[topic], s)
	return s
}

func (n *Network) remove(s *Subscription) {
	n.mu.Lock()
	defer n.mu.Unlock()
	list := n.subs[s.topic]
	for i, cur := range list {
		if cur == s {
			n.subs[s.topic] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// Publish broadcasts a payload to all current subscribers of the topic.
// With a fault plan installed, the message may be dropped, duplicated,
// delayed, or reordered per the plan's matching rule — Publish still
// returns nil, as a real sender never learns what gossip did to a packet.
func (n *Network) Publish(topic, from string, payload any) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	targets := make([]*Subscription, len(n.subs[topic]))
	copy(targets, n.subs[topic])
	faults := n.faults
	o := n.obs
	n.mu.Unlock()

	copies := []delivery{{}}
	var v verdict
	if faults != nil {
		copies, v = faults.plan(topic, from)
	}
	o.record(topic, len(copies), v)

	msg := Message{Topic: topic, From: from, Payload: payload}
	for _, c := range copies {
		delay := n.latency + c.delay
		if delay == 0 {
			for _, s := range targets {
				s.Deliver(msg)
			}
			continue
		}
		n.wg.Add(1)
		time.AfterFunc(delay, func() {
			defer n.wg.Done()
			for _, s := range targets {
				s.Deliver(msg)
			}
		})
	}
	return nil
}

// Close stops the network: in-flight delayed deliveries flush, and further
// publishes fail.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}
