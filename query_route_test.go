package dcert_test

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"dcert"
	"dcert/internal/query"
)

// routeRig is a deployment with certified historical and keyword indexes,
// served over loopback TCP, and a superlight client that has validated its
// certified header and index roots.
type routeRig struct {
	dep      *dcert.Deployment
	srv      *dcert.WireServer
	hdr      *dcert.Header
	histRoot dcert.Hash
	kwRoot   dcert.Hash
	key      string // a state key with history
}

func newRouteRig(t *testing.T, shards int) *routeRig {
	t.Helper()
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.SmallBank,
		Contracts:  2,
		Accounts:   10,
		KeySpace:   20,
		Difficulty: 2,
		Seed:       11,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	names := []string{"hist", "kw"}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewHistoricalIndex("hist", "ct/") }); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewKeywordIndex("kw") }); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	client := dep.NewSuperlightClient()
	for i := 0; i < 6; i++ {
		blk, cert, idxCerts, err := dep.MineAndCertifyHierarchical(15, names)
		if err != nil {
			t.Fatalf("MineAndCertifyHierarchical: %v", err)
		}
		if err := client.ValidateChain(&blk.Header, cert); err != nil {
			t.Fatalf("ValidateChain: %v", err)
		}
		for j, name := range names {
			ix, err := dep.SP().Index(name)
			if err != nil {
				t.Fatalf("Index: %v", err)
			}
			root, err := ix.Root()
			if err != nil {
				t.Fatalf("Root: %v", err)
			}
			if err := client.ValidateIndex(name, &blk.Header, root, idxCerts[j]); err != nil {
				t.Fatalf("ValidateIndex %s: %v", name, err)
			}
		}
	}
	if shards > 0 {
		if _, err := dep.StartFleet(shards); err != nil {
			t.Fatalf("StartFleet: %v", err)
		}
	}
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	r := &routeRig{dep: dep, srv: srv}
	r.hdr, _ = client.Latest()
	if r.histRoot, _, err = client.IndexRoot("hist"); err != nil {
		t.Fatalf("IndexRoot: %v", err)
	}
	if r.kwRoot, _, err = client.IndexRoot("kw"); err != nil {
		t.Fatalf("IndexRoot: %v", err)
	}
	for i := 0; i < 10 && r.key == ""; i++ {
		key := fmt.Sprintf("ct/SB-0000/checking/cust-%d", i)
		if res, err := dep.SP().HistoricalQuery("hist", key, 0, r.hdr.Height); err == nil && len(res.Entries) > 0 {
			r.key = key
		}
	}
	if r.key == "" {
		t.Fatal("no checking account has history")
	}
	return r
}

func (r *routeRig) dial(t *testing.T, name string) *dcert.WireClient {
	t.Helper()
	wc, err := dcert.DialWire(r.srv.Addr(), dcert.WireClientConfig{Name: name})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	t.Cleanup(func() { wc.Close() })
	return wc
}

// routeCase is one query kind: the request and the client's check of the
// answer against what it has certified.
type routeCase struct {
	name  string
	req   func() *dcert.QueryRequest
	check func(*dcert.QueryResponse) error
}

func (r *routeRig) cases() []routeCase {
	return []routeCase{
		{"state", func() *dcert.QueryRequest { return dcert.NewRemoteStateRequest(r.key) },
			func(resp *dcert.QueryResponse) error {
				res, err := dcert.ParseStateResult(resp)
				if err != nil {
					return err
				}
				if res.Value == nil {
					return fmt.Errorf("state of %q proven absent", r.key)
				}
				return dcert.VerifyState(r.hdr, res)
			}},
		{"historical", func() *dcert.QueryRequest {
			return dcert.NewRemoteHistoricalRequest("hist", r.key, 0, r.hdr.Height)
		},
			func(resp *dcert.QueryResponse) error {
				res, err := dcert.ParseHistoricalResult(resp)
				if err != nil {
					return err
				}
				if len(res.Entries) == 0 {
					return fmt.Errorf("no history for %q", r.key)
				}
				return dcert.VerifyHistorical(r.histRoot, res)
			}},
		{"keyword", func() *dcert.QueryRequest { return dcert.NewRemoteKeywordRequest("kw", []string{"deposit_check"}) },
			func(resp *dcert.QueryResponse) error {
				res, err := dcert.ParseKeywordResult(resp)
				if err != nil {
					return err
				}
				return dcert.VerifyKeyword(r.kwRoot, res)
			}},
		{"batch", func() *dcert.QueryRequest { return dcert.NewRemoteBatchStateRequest([]string{r.key, "never-written"}) },
			func(resp *dcert.QueryResponse) error {
				res, err := dcert.ParseBatchStateResult(resp)
				if err != nil {
					return err
				}
				return dcert.VerifyBatchState(r.hdr, res)
			}},
	}
}

// ask runs one query case over wc.
func ask(wc *dcert.WireClient, c routeCase) error {
	resp, err := dcert.RequestQuery(wc, c.req())
	if err != nil {
		return err
	}
	return c.check(resp)
}

// TestWireQueryRoute: every query kind over ServeWire + RequestQuery,
// answered by the primary SP and by a 2-shard fleet, verifies against the
// client's certified header or index root; a bad request of any kind is
// answered with an error and leaves the connection serving; and concurrent
// clients each get verified answers.
func TestWireQueryRoute(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newRouteRig(t, shards)
			wc := r.dial(t, "route-client")
			cases := r.cases()
			for _, c := range cases {
				if err := ask(wc, c); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}

			_, err := dcert.RequestQuery(wc, dcert.NewRemoteHistoricalRequest("no-such-index", r.key, 0, 1))
			if !errors.Is(err, dcert.ErrRemote) || !strings.Contains(err.Error(), "unknown index") {
				t.Fatalf("unknown index: %v, want a remote error naming the cause", err)
			}
			if err := ask(wc, cases[0]); err != nil {
				t.Fatalf("after a remote error: %v", err)
			}
			_, err = dcert.RequestQuery(wc, &dcert.QueryRequest{ID: 9, Kind: 0xAB})
			if !errors.Is(err, dcert.ErrRemote) || !strings.Contains(err.Error(), "unknown request kind") {
				t.Fatalf("unknown kind: %v, want a remote error", err)
			}
			if err := ask(wc, cases[1]); err != nil {
				t.Fatalf("after an unknown kind: %v", err)
			}
			raw, err := wc.Request(dcert.WireRouteQuery, []byte{0xff, 0x01})
			if err != nil {
				t.Fatalf("malformed body: %v, want an error response", err)
			}
			if resp, err := query.UnmarshalResponse(raw); err != nil || !strings.Contains(resp.Err, "unmarshal request") {
				t.Fatalf("malformed body: response %+v, %v; want a decode error", resp, err)
			}
			if err := ask(wc, cases[2]); err != nil {
				t.Fatalf("after a malformed body: %v", err)
			}

			const clients, rounds = 4, 5
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				cw := r.dial(t, fmt.Sprintf("route-client-%d", i))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for n := 0; n < rounds*len(cases); n++ {
						c := cases[(i+n)%len(cases)]
						if err := ask(cw, c); err != nil {
							errs <- fmt.Errorf("client %d, %s: %w", i, c.name, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			f := r.dep.Fleet()
			if (f != nil) != (shards > 0) {
				t.Fatalf("fleet %v with %d shards", f, shards)
			}
			if f != nil {
				var served uint64
				for _, name := range f.Router().Members() {
					rep, err := f.Replica(name)
					if err != nil {
						t.Fatalf("Replica: %v", err)
					}
					h, m, c, _ := rep.Cache().Stats()
					served += h + m + c
				}
				if served == 0 {
					t.Fatal("no shard served a request: queries bypassed the fleet")
				}
			}
		})
	}
}

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

// TestDeploymentCloseLeavesNoGoroutines: a deployment running everything
// that starts goroutines — a two-issuer cert plane with pipelines, a
// 2-shard fleet, a wire server and a client querying over it — leaves none
// behind once each part is stopped, in memory and durable.
func TestDeploymentCloseLeavesNoGoroutines(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := dcert.Config{Workload: dcert.KVStore, Contracts: 2, Accounts: 8, KeySpace: 30, Difficulty: 2, Seed: 5}
			if durable {
				cfg.Storage = &dcert.StorageConfig{Dir: t.TempDir(), FsyncInterval: 10 * time.Millisecond}
			}
			dep, err := dcert.OpenDeployment(cfg)
			if err != nil {
				t.Fatalf("OpenDeployment: %v", err)
			}
			plane, err := dep.StartCertPlane(2)
			if err != nil {
				t.Fatalf("StartCertPlane: %v", err)
			}
			if _, err := dep.StartFleet(2); err != nil {
				t.Fatalf("StartFleet: %v", err)
			}
			if err := plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
				t.Fatalf("StartPipelines: %v", err)
			}
			srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatalf("ServeWire: %v", err)
			}
			wc, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "leak"})
			if err != nil {
				t.Fatalf("DialWire: %v", err)
			}
			for i := 0; i < 4; i++ {
				if _, err := plane.MineAndBroadcastPipelined(8); err != nil {
					t.Fatalf("MineAndBroadcastPipelined: %v", err)
				}
				resp, err := dcert.RequestQuery(wc, dcert.NewRemoteStateRequest("never-written"))
				if err != nil {
					t.Fatalf("RequestQuery: %v", err)
				}
				if _, err := dcert.ParseStateResult(resp); err != nil {
					t.Fatalf("ParseStateResult: %v", err)
				}
			}
			if err := plane.DrainPipelines(); err != nil {
				t.Fatalf("DrainPipelines: %v", err)
			}

			wc.Close()
			srv.Close()
			plane.Stop()
			if err := dep.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			settleGoroutines(t, base, "after every stop")
		})
	}
}
