package network

// Subscriber is the read side of the topic API: subscribe to a topic with a
// bounded queue. The in-process Network is one; a wire transport client
// (internal/transport) is another, fed over length-prefixed TCP from the
// node's hub, so certificate followers run unchanged against either:
//
//   - delivery preserves per-publisher order on each topic;
//   - every current subscriber of a topic receives each delivered message;
//   - a subscriber whose queue is full misses messages instead of exerting
//     backpressure on the publisher (real gossip semantics).
type Subscriber interface {
	// Subscribe registers for a topic with the given queue depth.
	Subscribe(topic string, depth int) *Subscription
}

// Bus is the in-process topic API: a Subscriber that also publishes. Only
// the node publishes, on its own hub; Publish never reports delivery
// failures caused by the fabric itself (drops, partitions) — only a closed
// fabric errors.
type Bus interface {
	Subscriber
	// Publish broadcasts a payload to all current subscribers of the topic.
	Publish(topic, from string, payload any) error
}

// Network is the in-process Bus.
var _ Bus = (*Network)(nil)

// NewDetachedSubscription mints a Subscription that is not attached to any
// Network: the wire transport feeds it with Deliver as frames arrive and
// hooks Cancel to tear down the remote registration. It carries the exact
// queue semantics of an attached subscription (bounded buffer, drop on
// overflow, safe concurrent Cancel).
func NewDetachedSubscription(topic string, depth int, onCancel func()) *Subscription {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan Message, depth)
	return &Subscription{C: ch, topic: topic, ch: ch, onCancel: onCancel}
}

// Topic returns the topic the subscription was registered for.
func (s *Subscription) Topic() string {
	return s.topic
}

// Deliver enqueues one message, reporting false if it was dropped because
// the queue is full (slow subscriber) or the subscription was cancelled.
// It never blocks. Transports use this to feed detached subscriptions and
// to account slow-consumer drops.
func (s *Subscription) Deliver(m Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	select {
	case s.ch <- m:
		return true
	default: // slow subscriber: drop, as real gossip would
		return false
	}
}
