package query

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcert/internal/network"
	"dcert/internal/transport"
)

// rpcQueryRoute is the transport route the served rig mounts HandleRaw on.
const rpcQueryRoute = "test/query"

// servedRig builds a rig with indexes whose SP answers the query protocol
// on a transport RPC route, and a client dialed to it over loopback TCP.
func servedRig(t *testing.T) (*rig, *transport.Client) {
	t.Helper()
	r, _, _ := queryableRig(t)
	hub := network.New()
	t.Cleanup(hub.Close)
	srv, err := transport.Serve(hub, transport.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Handle(rpcQueryRoute, func(body []byte) ([]byte, error) {
		return HandleRaw(r.sp, body), nil
	})
	c, err := transport.Dial(srv.Addr(), transport.ClientConfig{Name: "query-test"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return r, c
}

// ask sends one serialized request and parses the response.
func ask(c *transport.Client, raw []byte) (*Response, error) {
	respRaw, err := c.Request(rpcQueryRoute, raw)
	if err != nil {
		return nil, err
	}
	return UnmarshalResponse(respRaw)
}

// askOK sends req and fails the test on anything but an answer.
func askOK(t *testing.T, c *transport.Client, req *Request) *Response {
	t.Helper()
	resp, err := ask(c, req.Marshal())
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.Err != "" {
		t.Fatalf("query: remote error: %s", resp.Err)
	}
	return resp
}

func TestNetworkedHistoricalQuery(t *testing.T) {
	r, c := servedRig(t)
	ix, err := r.sp.Index("hist")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	resp := askOK(t, c, NewHistoricalRequest("hist", anyIndexedKey(t, ix), 0, 100))
	res, err := UnmarshalHistoricalResult(resp.Body)
	if err != nil {
		t.Fatalf("UnmarshalHistoricalResult: %v", err)
	}
	if err := VerifyHistorical(root, res); err != nil {
		t.Fatalf("VerifyHistorical over the wire: %v", err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("expected remote results")
	}
}

func TestNetworkedKeywordQuery(t *testing.T) {
	r, c := servedRig(t)
	ix, err := r.sp.Index("kw")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	resp := askOK(t, c, NewKeywordRequest("kw", []string{"deposit_check"}))
	res, err := UnmarshalKeywordResult(resp.Body)
	if err != nil {
		t.Fatalf("UnmarshalKeywordResult: %v", err)
	}
	if err := VerifyKeyword(root, res); err != nil {
		t.Fatalf("VerifyKeyword over the wire: %v", err)
	}
}

func TestNetworkedStateQuery(t *testing.T) {
	r, c := servedRig(t)
	tip := r.sp.Node().Tip()
	resp := askOK(t, c, NewStateRequest("never-written"))
	res, err := UnmarshalStateResult(resp.Body)
	if err != nil {
		t.Fatalf("UnmarshalStateResult: %v", err)
	}
	if err := VerifyState(&tip.Header, res); err != nil {
		t.Fatalf("VerifyState over the wire: %v", err)
	}
}

func TestNetworkedQueryRemoteError(t *testing.T) {
	_, c := servedRig(t)
	req := NewHistoricalRequest("no-such-index", "k", 0, 1)
	req.ID = 5
	resp, err := ask(c, req.Marshal())
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.ID != 5 || !strings.Contains(resp.Err, "unknown index") || len(resp.Body) != 0 {
		t.Fatalf("response = %+v, want ID 5 and the cause, no body", resp)
	}
}

// A query the SP never answers fails at the client's RequestTimeout
// instead of hanging.
func TestNetworkedQueryTimeout(t *testing.T) {
	hub := network.New()
	defer hub.Close()
	srv, err := transport.Serve(hub, transport.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	release := make(chan struct{})
	defer close(release) // before Close, which waits for the handler
	srv.Handle(rpcQueryRoute, func([]byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	c, err := transport.Dial(srv.Addr(), transport.ClientConfig{Name: "query-test", RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := ask(c, NewHistoricalRequest("hist", "k", 0, 1).Marshal()); !errors.Is(err, transport.ErrRequestTimeout) {
		t.Fatalf("want ErrRequestTimeout, got %v", err)
	}
}

func TestNetworkedQueryConcurrentClients(t *testing.T) {
	r, c := servedRig(t)
	ix, err := r.sp.Index("hist")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	key := anyIndexedKey(t, ix)

	const parallel = 8
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		go func(id uint64) {
			req := NewHistoricalRequest("hist", key, 0, 100)
			req.ID = id
			resp, err := ask(c, req.Marshal())
			if err == nil && (resp.ID != id || resp.Err != "") {
				t.Errorf("response %d = ID %d, error %q", id, resp.ID, resp.Err)
			}
			var res *HistoricalResult
			if err == nil {
				res, err = UnmarshalHistoricalResult(resp.Body)
			}
			if err == nil {
				err = VerifyHistorical(root, res)
			}
			errs <- err
		}(uint64(i + 1))
	}
	for i := 0; i < parallel; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent query: %v", err)
		}
	}
}

// A malformed request is answered with an error response — an RPC is owed
// an answer — and the connection keeps serving well-formed ones.
func TestServerAnswersMalformedRequests(t *testing.T) {
	r, c := servedRig(t)
	for _, raw := range [][]byte{
		{0xff, 0x01},
		NewStateRequest("k").Marshal()[:3],
		append(NewStateRequest("k").Marshal(), 0), // trailing byte
		nil,
	} {
		resp, err := ask(c, raw)
		if err != nil {
			t.Fatalf("malformed %x: %v", raw, err)
		}
		if !strings.Contains(resp.Err, "unmarshal request") || len(resp.Body) != 0 {
			t.Fatalf("malformed %x: response %+v, want a decode error", raw, resp)
		}
	}
	tip := r.sp.Node().Tip()
	res, err := UnmarshalStateResult(askOK(t, c, NewStateRequest("still-served")).Body)
	if err != nil {
		t.Fatalf("UnmarshalStateResult: %v", err)
	}
	if err := VerifyState(&tip.Header, res); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}
}

func TestServerRejectsUnknownRequestKind(t *testing.T) {
	_, c := servedRig(t)
	resp, err := ask(c, (&Request{ID: 77, Kind: 0xAB}).Marshal())
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.ID != 77 || !strings.Contains(resp.Err, "unknown request kind") {
		t.Fatalf("response = %+v", resp)
	}
}

func TestRequestMarshalRoundTrip(t *testing.T) {
	req := &Request{ID: 7, Kind: reqKeyword, Index: "kw", Keywords: []string{"a", "b"}}
	parsed, err := UnmarshalRequest(req.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalRequest: %v", err)
	}
	if parsed.ID != 7 || parsed.Kind != reqKeyword || len(parsed.Keywords) != 2 {
		t.Fatalf("round trip mismatch: %+v", parsed)
	}
	if _, err := UnmarshalRequest([]byte{1}); err == nil {
		t.Fatal("want error for garbage request")
	}
	if _, err := UnmarshalResponse([]byte{1}); err == nil {
		t.Fatal("want error for garbage response")
	}
}
