package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
)

// Fuzz targets for the wire decoders: every byte sequence a hostile or
// corrupted peer could send must either parse into a valid structure or
// fail with an error — never panic, never over-allocate past MaxFrameSize.

// FuzzFrameDecode drives the frame decoder, at the wire's limit, with arbitrary bytes:
// truncated headers, hostile length prefixes, corrupt CRCs, and valid
// frames alike.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(chash.AppendFrame(nil, []byte{kindHello, 1, 2, 3}))
	f.Add(chash.AppendFrame(nil, bytes.Repeat([]byte{7}, 100)))
	// Oversized length prefix with no body behind it.
	huge := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
	f.Add(append(huge, 0, 0, 0, 0))
	// Valid header, flipped CRC.
	corrupt := chash.AppendFrame(nil, []byte{kindRequest, 9, 9})
	corrupt[4] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		body, n, err := chash.DecodeFrame(data, MaxFrameSize)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with nonzero consumed count %d", n)
			}
			return
		}
		if len(body) == 0 {
			t.Fatal("decoded an empty body without error")
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A decoded frame must re-encode to exactly the bytes consumed.
		if !bytes.Equal(chash.AppendFrame(nil, body), data[:n]) {
			t.Fatal("re-encoding a decoded frame changed its bytes")
		}
	})
}

// FuzzHandshake drives the hello decoder — the first parser an unauth'd
// peer reaches — with arbitrary frame bodies, plus bad magic and version
// skew.
func FuzzHandshake(f *testing.F) {
	f.Add((&helloMsg{version: ProtocolVersion, name: "client"}).encode())
	f.Add((&helloMsg{version: 9999, name: "future"}).encode())
	f.Add([]byte{kindHello})
	f.Add([]byte{kindHello, 0xDE, 0xAD, 0xBE, 0xEF})
	f.Add((&welcomeMsg{version: ProtocolVersion}).encode())

	f.Fuzz(func(t *testing.T, body []byte) {
		kind, d, err := splitKind(body)
		if err != nil {
			return
		}
		if kind != kindHello {
			return
		}
		m, err := decodeHello(d)
		if err != nil {
			return
		}
		// A hello that parses must re-encode to the identical body.
		if !bytes.Equal(m.encode(), body) {
			t.Fatalf("hello round-trip mismatch: %x != %x", m.encode(), body)
		}
	})
}

// FuzzWireMessages drives every kind-specific decoder with arbitrary
// bodies; whatever parses must round-trip byte-identically.
func FuzzWireMessages(f *testing.F) {
	f.Add((&subscribeMsg{id: 1, topic: "certs", depth: 16}).encode())
	f.Add((&subscribedMsg{id: 1}).encode())
	f.Add((&unsubscribeMsg{id: 1}).encode())
	f.Add((&messageMsg{subID: 3, topic: "blocks", from: "miner", payload: []byte{payloadBytes}}).encode())
	f.Add((&requestMsg{id: 7, method: "dcert/query", body: []byte("q")}).encode())
	f.Add((&responseMsg{id: 7, errMsg: "", body: []byte("r")}).encode())
	f.Add((&responseMsg{id: 8, errMsg: "transport: unknown RPC method"}).encode())

	f.Fuzz(func(t *testing.T, body []byte) {
		kind, d, err := splitKind(body)
		if err != nil {
			return
		}
		var reencoded []byte
		switch kind {
		case kindSubscribe:
			m, err := decodeSubscribe(d)
			if err != nil {
				return
			}
			reencoded = m.encode()
		case kindSubscribed:
			m, err := decodeSubscribed(d)
			if err != nil {
				return
			}
			reencoded = m.encode()
		case kindUnsubscribe:
			m, err := decodeUnsubscribe(d)
			if err != nil {
				return
			}
			reencoded = m.encode()
		case kindMessage:
			m, err := decodeMessage(d)
			if err != nil {
				return
			}
			reencoded = m.encode()
		case kindRequest:
			m, err := decodeRequest(d)
			if err != nil {
				return
			}
			reencoded = m.encode()
		case kindResponse:
			m, err := decodeResponse(d)
			if err != nil {
				return
			}
			reencoded = m.encode()
		default:
			return
		}
		if !bytes.Equal(reencoded, body) {
			t.Fatalf("kind %d round-trip mismatch", kind)
		}
	})
}

// TestRetiredPublishKindIsUnknown: kind 6, the retired client publish, is an
// unknown kind to the server, whose dispatch error ends the connection.
func TestRetiredPublishKindIsUnknown(t *testing.T) {
	e := chash.NewEncoder(32)
	e.PutByte(6)
	e.PutString("certs")
	e.PutString("ci")
	e.PutBytes([]byte{payloadBytes, 1})
	if err := new(serverConn).dispatch(e.Bytes()); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("dispatch(kind 6) = %v, want ErrUnknownKind", err)
	}
}

// FuzzPayload drives the typed payload codec: arbitrary tagged bytes must
// decode or error, and whatever decodes must re-encode to bytes that decode
// again to the same value.
func FuzzPayload(f *testing.F) {
	f.Add([]byte{payloadBytes, 1, 2, 3})
	f.Add([]byte{payloadCertBundle, 0, 0, 0, 0})
	f.Add([]byte{payloadSegment, 0xFF})
	f.Add([]byte{payloadSegment, 0, 0, 0, 2}) // two headers claimed, none present
	first := &chain.Header{Height: 8, PrevHash: chash.Sum(chash.DomainHeader, []byte("prev"))}
	seg, err := encodePayload(&core.SegmentCert{
		Headers: []*chain.Header{first, {Height: 9, PrevHash: first.Hash()}},
		Cert: &core.Certificate{
			PubKey: []byte("key"),
			Report: &attest.Report{PlatformID: "sim", CertChain: []byte("chain"), Signature: []byte("sig")},
			Sig:    []byte("sig"),
		},
		Interlink: []chash.Hash{first.PrevHash},
	})
	if err != nil {
		f.Fatalf("encode segment seed: %v", err)
	}
	if _, err := decodePayload(seg); err != nil {
		f.Fatalf("segment seed does not decode: %v", err)
	}
	f.Add(seg)

	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := decodePayload(raw)
		if err != nil {
			return
		}
		encoded, err := encodePayload(v)
		if err != nil {
			t.Fatalf("decoded payload failed to re-encode: %v", err)
		}
		again, err := decodePayload(encoded)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if reencoded, _ := encodePayload(again); !bytes.Equal(reencoded, encoded) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
