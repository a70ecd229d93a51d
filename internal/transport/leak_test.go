package transport

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dcert/internal/network"
)

// settleGoroutines waits for the goroutine count to fall back to base and
// fails with the survivors' stacks if it does not.
func settleGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("%s: %d goroutines, want <= %d:\n%s", when, runtime.NumGoroutine(), base, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// busyClients dials n clients that each hold a subscription, receive a hub
// publish on it, and run a small and a large (vectored) RPC, so every
// per-connection goroutine — reader, writer, forwarder, request handler —
// has run.
func busyClients(t *testing.T, hub *network.Network, srv *Server, n int) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(srv.Addr(), ClientConfig{Name: "leak"})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		clients[i] = c
		sub := c.Subscribe("leak/topic", 8)
		if err := hub.Publish("leak/topic", "leak", []byte("hello")); err != nil {
			t.Fatalf("publish: %v", err)
		}
		select {
		case <-sub.C:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out")
		}
		for _, size := range []int{10, 64 << 10} {
			body, err := c.Request("leak/echo", bytes.Repeat([]byte{1}, size))
			if err != nil || len(body) != size {
				t.Fatalf("request of %d bytes: %d bytes back, %v", size, len(body), err)
			}
		}
	}
	return clients
}

// TestCloseLeavesNoGoroutines: Client.Close and Server.Close end every
// goroutine the connections started, whichever side closes first; a server
// that goes away ends its clients' readers without a Client.Close.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	hub := network.New()
	defer hub.Close()
	base := runtime.NumGoroutine()
	serve := func() *Server {
		srv, err := Serve(hub, ServerConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		srv.Handle("leak/echo", func(b []byte) ([]byte, error) { return b, nil })
		return srv
	}

	srv := serve()
	for _, c := range busyClients(t, hub, srv, 3) {
		c.Close()
	}
	srv.Close()
	settleGoroutines(t, base, "clients closed, then the server")

	srv = serve()
	clients := busyClients(t, hub, srv, 3)
	srv.Close()
	settleGoroutines(t, base, "server closed under live clients")
	for _, c := range clients {
		if _, err := c.Request("leak/echo", nil); err == nil {
			t.Fatal("a request succeeded after the server closed")
		}
		c.Close()
	}
	settleGoroutines(t, base, "clients closed after the server")
}
