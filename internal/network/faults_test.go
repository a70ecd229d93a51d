package network

import (
	"testing"
	"time"
)

// collect drains messages until the subscription is quiet for the grace
// period, returning the payloads in arrival order.
func collect(s *Subscription, grace time.Duration) []any {
	var out []any
	for {
		select {
		case m := <-s.C:
			out = append(out, m.Payload)
		case <-time.After(grace):
			return out
		}
	}
}

func TestFaultDropIsDeterministic(t *testing.T) {
	run := func() []any {
		n := New()
		defer n.Close()
		n.SetFaults(&FaultPlan{Seed: 42, Rules: []FaultRule{{Topic: testTopic, Drop: 0.5}}})
		sub := n.Subscribe(testTopic, 64)
		defer sub.Cancel()
		for i := 0; i < 20; i++ {
			if err := n.Publish(testTopic, "miner", i); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		return collect(sub, 20*time.Millisecond)
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 20 {
		t.Fatalf("drop rule had no effect: %d/20 delivered", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different outcomes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different sequence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFaultDuplicate(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetFaults(&FaultPlan{Seed: 7, Rules: []FaultRule{{Topic: TopicCerts, Duplicate: 1}}})
	sub := n.Subscribe(TopicCerts, 64)
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		if err := n.Publish(TopicCerts, "ci", i); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	got := collect(sub, 20*time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("Duplicate=1 delivered %d messages, want 10", len(got))
	}
}

func TestFaultReorder(t *testing.T) {
	n := New()
	defer n.Close()
	// First message is always held back; the rest pass untouched.
	n.SetFaults(&FaultPlan{Seed: 1, Rules: []FaultRule{
		{Topic: testTopic, From: "laggy", Reorder: 1, ReorderDelay: 30 * time.Millisecond},
		{Topic: testTopic},
	}})
	sub := n.Subscribe(testTopic, 64)
	defer sub.Cancel()
	if err := n.Publish(testTopic, "laggy", "late"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := n.Publish(testTopic, "miner", "early"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got := collect(sub, 60*time.Millisecond)
	if len(got) != 2 || got[0] != "early" || got[1] != "late" {
		t.Fatalf("reorder did not overtake: %v", got)
	}
}

func TestFaultRuleScopedToPublisher(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetFaults(&FaultPlan{Seed: 3, Rules: []FaultRule{{Topic: testTopic, From: "evil", Drop: 1}}})
	sub := n.Subscribe(testTopic, 8)
	defer sub.Cancel()
	if err := n.Publish(testTopic, "evil", "lost"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := n.Publish(testTopic, "miner", "kept"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got := collect(sub, 20*time.Millisecond)
	if len(got) != 1 || got[0] != "kept" {
		t.Fatalf("per-publisher rule leaked: %v", got)
	}
}

func TestFaultJitterDelaysButDelivers(t *testing.T) {
	n := New()
	n.SetFaults(&FaultPlan{Seed: 9, Rules: []FaultRule{{JitterMax: 10 * time.Millisecond}}})
	sub := n.Subscribe(TopicCerts, 64)
	defer sub.Cancel()
	for i := 0; i < 10; i++ {
		if err := n.Publish(TopicCerts, "ci", i); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	n.Close() // flushes delayed deliveries
	got := collect(sub, 20*time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("jitter lost messages: %d/10", len(got))
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetFaults(&FaultPlan{Seed: 5})
	sub := n.Subscribe(TopicCerts, 8)
	defer sub.Cancel()

	n.Partition(TopicCerts)
	if err := n.Publish(TopicCerts, "ci", "cut"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := collect(sub, 20*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned topic delivered: %v", got)
	}

	n.Heal(TopicCerts)
	if err := n.Publish(TopicCerts, "ci", "healed"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got := collect(sub, 20*time.Millisecond)
	if len(got) != 1 || got[0] != "healed" {
		t.Fatalf("healed topic did not deliver: %v", got)
	}
}

func TestPartitionIsPerTopic(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetFaults(&FaultPlan{Seed: 5})
	other := n.Subscribe(testTopic, 8)
	defer other.Cancel()

	n.Partition(TopicCerts)
	if err := n.Publish(testTopic, "miner", "flows"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	got := collect(other, 20*time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("partition of another topic blocked delivery: %v", got)
	}
}

func TestSetFaultsNilRestoresCleanDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetFaults(&FaultPlan{Seed: 2, Rules: []FaultRule{{Drop: 1}}})
	n.SetFaults(nil)
	sub := n.Subscribe(testTopic, 8)
	defer sub.Cancel()
	if err := n.Publish(testTopic, "miner", 1); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := collect(sub, 20*time.Millisecond); len(got) != 1 {
		t.Fatalf("cleared plan still perturbs: %v", got)
	}
}
