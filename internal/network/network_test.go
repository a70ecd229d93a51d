package network

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// testTopic is a topic of the tests' own: the bus is topic-agnostic, and
// the workflow's one topic (TopicCerts) stays free for per-topic checks.
const testTopic = "test"

func recvOne(t *testing.T, s *Subscription, timeout time.Duration) Message {
	t.Helper()
	select {
	case m, ok := <-s.C:
		if !ok {
			t.Fatal("subscription closed")
		}
		return m
	case <-time.After(timeout):
		t.Fatal("timed out waiting for message")
		return Message{}
	}
}

func TestPublishSubscribe(t *testing.T) {
	n := New()
	defer n.Close()
	sub := n.Subscribe(testTopic, 4)
	defer sub.Cancel()

	if err := n.Publish(testTopic, "miner", 42); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	m := recvOne(t, sub, time.Second)
	if m.From != "miner" || m.Payload.(int) != 42 || m.Topic != testTopic {
		t.Fatalf("message = %+v", m)
	}
}

func TestTopicsIsolated(t *testing.T) {
	n := New()
	defer n.Close()
	other := n.Subscribe(testTopic, 4)
	certs := n.Subscribe(TopicCerts, 4)
	defer other.Cancel()
	defer certs.Cancel()

	if err := n.Publish(TopicCerts, "ci", "cert"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	recvOne(t, certs, time.Second)
	select {
	case m := <-other.C:
		t.Fatalf("test-topic subscriber got cert message %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestMultipleSubscribersAllReceive(t *testing.T) {
	n := New()
	defer n.Close()
	var subs []*Subscription
	for i := 0; i < 5; i++ {
		subs = append(subs, n.Subscribe(testTopic, 2))
	}
	if err := n.Publish(testTopic, "miner", "blk"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	for i, s := range subs {
		m := recvOne(t, s, time.Second)
		if m.Payload.(string) != "blk" {
			t.Fatalf("subscriber %d payload %v", i, m.Payload)
		}
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	n := New()
	defer n.Close()
	sub := n.Subscribe(testTopic, 1)
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		if err := n.Publish(testTopic, "miner", i); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	m := recvOne(t, sub, time.Second)
	if m.Payload.(int) != 0 {
		t.Fatalf("first message = %v", m.Payload)
	}
	select {
	case m := <-sub.C:
		t.Fatalf("overflowed message delivered: %v", m.Payload)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	sub := n.Subscribe(testTopic, 4)
	sub.Cancel()
	sub.Cancel() // idempotent
	if err := n.Publish(testTopic, "miner", 1); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("cancelled subscription received a message")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(WithLatency(50 * time.Millisecond))
	sub := n.Subscribe(testTopic, 4)
	defer sub.Cancel()

	start := time.Now()
	if err := n.Publish(testTopic, "miner", "slow"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	recvOne(t, sub, time.Second)
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
	n.Close()
}

// TestConcurrentPublishSubscribeCancelStress hammers the fabric from many
// goroutines — publishers racing subscribers racing Cancel racing Close —
// as a regression for the Publish-vs-Cancel send-on-closed-channel panic.
// Run under -race.
func TestConcurrentPublishSubscribeCancelStress(t *testing.T) {
	n := New(WithLatency(100 * time.Microsecond))
	n.SetFaults(&FaultPlan{Seed: 13, Rules: []FaultRule{
		{Drop: 0.1, Duplicate: 0.2, Reorder: 0.2, ReorderDelay: 100 * time.Microsecond},
	}})
	topics := []string{testTopic, TopicCerts, "other"}

	var wg sync.WaitGroup
	// Churning subscribers: subscribe, read a little, cancel.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				sub := n.Subscribe(topics[(i+j)%len(topics)], 2)
				select {
				case <-sub.C:
				case <-time.After(50 * time.Microsecond):
				}
				sub.Cancel()
			}
		}(i)
	}
	// Publishers racing against the churn.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = n.Publish(topics[j%len(topics)], "stress", j)
			}
		}(i)
	}
	// Partition flapping in parallel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			n.Partition(TopicCerts)
			n.Heal(TopicCerts)
		}
	}()
	wg.Wait()
	n.Close()
	if err := n.Publish(testTopic, "stress", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
}

func TestPublishAfterClose(t *testing.T) {
	n := New()
	n.Close()
	n.Close() // idempotent
	if err := n.Publish(testTopic, "miner", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
