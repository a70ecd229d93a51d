package transport_test

import (
	"testing"
	"time"

	"dcert/internal/network"
	"dcert/internal/transport"
	"dcert/internal/transport/conformance"
)

// TestConformanceInProcess runs the shared subscription contract against the
// in-process fabric — the reference implementation.
func TestConformanceInProcess(t *testing.T) {
	conformance.Run(t, func(t *testing.T) conformance.Fabric {
		n := network.New()
		t.Cleanup(n.Close)
		return conformance.Fabric{Hub: n, Sub: n}
	})
}

// serveHub starts a wire server over a fresh hub, closing both at cleanup.
func serveHub(t *testing.T) (*network.Network, *transport.Server) {
	t.Helper()
	hub := network.New()
	srv, err := transport.Serve(hub, transport.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		hub.Close()
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		hub.Close()
	})
	return hub, srv
}

// dial connects a wire client to the server, closing it at cleanup.
func dial(t *testing.T, srv *transport.Server, name string) *transport.Client {
	t.Helper()
	c, err := transport.Dial(srv.Addr(), transport.ClientConfig{Name: name})
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConformanceTCP runs the identical contract over real sockets: the
// suite publishes on an in-process hub behind a transport.Server and
// subscribes through a transport.Client, so fault rules constrain traffic
// that genuinely crossed TCP.
func TestConformanceTCP(t *testing.T) {
	conformance.Run(t, func(t *testing.T) conformance.Fabric {
		hub, srv := serveHub(t)
		return conformance.Fabric{Hub: hub, Sub: dial(t, srv, "conformance")}
	})
}

// TestTCPCrossClientDelivery is wire-specific glue the shared suite cannot
// express with one connection: a hub publish reaches subscribers on two
// connections of the same server.
func TestTCPCrossClientDelivery(t *testing.T) {
	hub, srv := serveHub(t)
	var subs []*network.Subscription
	for _, name := range []string{"first", "second"} {
		sub := dial(t, srv, name).Subscribe("cross", 8)
		defer sub.Cancel()
		subs = append(subs, sub)
	}
	if err := hub.Publish("cross", "node", []byte("hello")); err != nil {
		t.Fatalf("publish: %v", err)
	}
	for i, sub := range subs {
		select {
		case m := <-sub.C:
			if string(m.Payload.([]byte)) != "hello" || m.From != "node" {
				t.Fatalf("connection %d got %+v", i, m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery to connection %d never arrived", i)
		}
	}
}

// TestTCPServerStats exercises the wire's delivery and RPC accounting.
func TestTCPServerStats(t *testing.T) {
	hub, srv := serveHub(t)
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	client := dial(t, srv, "stats")

	sub := client.Subscribe("stats-topic", 4)
	defer sub.Cancel()
	for i := 0; i < 10; i++ {
		if err := hub.Publish("stats-topic", "p", []byte{byte(i)}); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if _, err := client.Request("echo", []byte("x")); err != nil {
		t.Fatalf("echo: %v", err)
	}

	st := srv.Stats()
	if st.Accepted != 1 || st.ActiveConns != 1 || st.ActiveSubs != 1 {
		t.Fatalf("stats = %+v, want 1 conn with 1 sub", st)
	}
	if st.Requests != 1 {
		t.Fatalf("stats = %+v, want 1 request", st)
	}
	// The per-subscription forwarder runs asynchronously off the hub queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().MessagesSent == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want topic messages sent", srv.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
