package transport

import (
	"errors"
	"fmt"
	"slices"

	"dcert/internal/chash"
)

// Protocol messages. Every frame body starts with a one-byte kind; the rest
// is the kind-specific encoding (chash canonical codec, like every other
// DCert wire format). The protocol is strictly client-initiated except for
// kindMessage, which the server pushes for topic deliveries.
//
// A decoded message's byte fields (payloads, request and response bodies)
// alias its frame: chash.ReadFrame allocates every frame afresh and nothing
// writes to it afterwards, so the body need not be copied out.

// Protocol errors.
var (
	// ErrBadHandshake is returned when the peer's hello/welcome is malformed
	// or carries the wrong magic.
	ErrBadHandshake = errors.New("transport: bad handshake")
	// ErrVersionMismatch is returned when the peer speaks an unsupported
	// protocol version.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrUnknownKind is returned for an unrecognized message kind.
	ErrUnknownKind = errors.New("transport: unknown message kind")
)

// protocolMagic identifies a DCert wire stream ("DCRT").
const protocolMagic uint32 = 0x44435254

// ProtocolVersion is the wire protocol version spoken by this build. The
// handshake rejects any other version — versioning is strict until there
// are two versions to negotiate between.
const ProtocolVersion uint32 = 1

// Message kinds. Kind 6, a client publish onto the hub, is retired and never
// reused: a remote peer only subscribes and calls, so a frame of kind 6 is an
// unknown kind that ends its connection.
const (
	kindHello       byte = 1 // client → server: magic, version, client name
	kindWelcome     byte = 2 // server → client: magic, version accepted
	kindSubscribe   byte = 3 // client → server: register a topic subscription
	kindSubscribed  byte = 4 // server → client: subscription is live
	kindUnsubscribe byte = 5 // client → server: drop a subscription
	kindMessage     byte = 7 // server → client: one topic delivery
	kindRequest     byte = 8 // client → server: RPC call
	kindResponse    byte = 9 // server → client: RPC answer
)

// helloMsg opens a connection.
type helloMsg struct {
	version uint32
	name    string // client identity, diagnostics only
}

func (m *helloMsg) encode() []byte {
	e := chash.NewEncoder(16 + len(m.name))
	e.PutByte(kindHello)
	e.PutUint32(protocolMagic)
	e.PutUint32(m.version)
	e.PutString(m.name)
	return e.Bytes()
}

// decodeHello parses a hello body (kind byte already consumed by dispatch,
// so d is positioned at the magic).
func decodeHello(d *chash.Decoder) (*helloMsg, error) {
	magic, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if magic != protocolMagic {
		return nil, fmt.Errorf("%w: magic %08x", ErrBadHandshake, magic)
	}
	var m helloMsg
	if m.version, err = d.Uint32(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if m.name, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	return &m, nil
}

// welcomeMsg accepts a connection.
type welcomeMsg struct {
	version uint32
}

func (m *welcomeMsg) encode() []byte {
	e := chash.NewEncoder(16)
	e.PutByte(kindWelcome)
	e.PutUint32(protocolMagic)
	e.PutUint32(m.version)
	return e.Bytes()
}

func decodeWelcome(d *chash.Decoder) (*welcomeMsg, error) {
	magic, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if magic != protocolMagic {
		return nil, fmt.Errorf("%w: magic %08x", ErrBadHandshake, magic)
	}
	var m welcomeMsg
	if m.version, err = d.Uint32(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	return &m, nil
}

// subscribeMsg registers a topic subscription under a client-chosen id.
type subscribeMsg struct {
	id    uint64
	topic string
	depth uint32
}

func (m *subscribeMsg) encode() []byte {
	e := chash.NewEncoder(32 + len(m.topic))
	e.PutByte(kindSubscribe)
	e.PutUint64(m.id)
	e.PutString(m.topic)
	e.PutUint32(m.depth)
	return e.Bytes()
}

func decodeSubscribe(d *chash.Decoder) (*subscribeMsg, error) {
	var m subscribeMsg
	var err error
	if m.id, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("transport: subscribe: %w", err)
	}
	if m.topic, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("transport: subscribe: %w", err)
	}
	if m.depth, err = d.Uint32(); err != nil {
		return nil, fmt.Errorf("transport: subscribe: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transport: subscribe: %w", err)
	}
	return &m, nil
}

// subscribedMsg acknowledges a live subscription. Subscribe is synchronous
// on the client so that a hub publish issued after Subscribe returns is
// guaranteed to reach the new subscriber — the same happens-before edge the
// in-process bus gives for free.
type subscribedMsg struct {
	id uint64
}

func (m *subscribedMsg) encode() []byte {
	e := chash.NewEncoder(16)
	e.PutByte(kindSubscribed)
	e.PutUint64(m.id)
	return e.Bytes()
}

func decodeSubscribed(d *chash.Decoder) (*subscribedMsg, error) {
	var m subscribedMsg
	var err error
	if m.id, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("transport: subscribed: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transport: subscribed: %w", err)
	}
	return &m, nil
}

// unsubscribeMsg drops a subscription (fire-and-forget).
type unsubscribeMsg struct {
	id uint64
}

func (m *unsubscribeMsg) encode() []byte {
	e := chash.NewEncoder(16)
	e.PutByte(kindUnsubscribe)
	e.PutUint64(m.id)
	return e.Bytes()
}

func decodeUnsubscribe(d *chash.Decoder) (*unsubscribeMsg, error) {
	var m unsubscribeMsg
	var err error
	if m.id, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("transport: unsubscribe: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transport: unsubscribe: %w", err)
	}
	return &m, nil
}

// messageMsg pushes one topic delivery to a subscriber.
type messageMsg struct {
	subID   uint64
	topic   string
	from    string
	payload []byte
}

func (m *messageMsg) encode() []byte {
	e := chash.NewEncoder(40 + len(m.topic) + len(m.from) + len(m.payload))
	e.PutByte(kindMessage)
	e.PutUint64(m.subID)
	e.PutString(m.topic)
	e.PutString(m.from)
	e.PutBytes(m.payload)
	return e.Bytes()
}

func decodeMessage(d *chash.Decoder) (*messageMsg, error) {
	var m messageMsg
	var err error
	if m.subID, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("transport: message: %w", err)
	}
	if m.topic, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("transport: message: %w", err)
	}
	if m.from, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("transport: message: %w", err)
	}
	if m.payload, err = d.ReadBytesShared(); err != nil {
		return nil, fmt.Errorf("transport: message: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transport: message: %w", err)
	}
	return &m, nil
}

// requestMsg is one RPC call.
type requestMsg struct {
	id     uint64
	method string
	body   []byte
}

func (m *requestMsg) encode() []byte {
	e := chash.NewEncoder(32 + len(m.method) + len(m.body))
	e.PutByte(kindRequest)
	e.PutUint64(m.id)
	e.PutString(m.method)
	e.PutBytes(m.body)
	return e.Bytes()
}

func decodeRequest(d *chash.Decoder) (*requestMsg, error) {
	var m requestMsg
	var err error
	if m.id, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("transport: request: %w", err)
	}
	if m.method, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("transport: request: %w", err)
	}
	if m.body, err = d.ReadBytesShared(); err != nil {
		return nil, fmt.Errorf("transport: request: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transport: request: %w", err)
	}
	return &m, nil
}

// responseMsg answers one RPC call.
type responseMsg struct {
	id     uint64
	errMsg string // "" on success
	body   []byte
}

func (m *responseMsg) encode() []byte {
	return slices.Concat(m.encodeHead(), m.body)
}

// encodeHead renders the response up to its body: the frame writer sends
// the handler's body bytes behind it as they are.
func (m *responseMsg) encodeHead() []byte {
	e := chash.NewEncoder(17 + len(m.errMsg))
	e.PutByte(kindResponse)
	e.PutUint64(m.id)
	e.PutString(m.errMsg)
	e.PutUint32(uint32(len(m.body)))
	return e.Bytes()
}

func decodeResponse(d *chash.Decoder) (*responseMsg, error) {
	var m responseMsg
	var err error
	if m.id, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("transport: response: %w", err)
	}
	if m.errMsg, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("transport: response: %w", err)
	}
	if m.body, err = d.ReadBytesShared(); err != nil {
		return nil, fmt.Errorf("transport: response: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("transport: response: %w", err)
	}
	return &m, nil
}

// splitKind peels the kind byte off a frame body and returns a decoder over
// the rest.
func splitKind(body []byte) (byte, *chash.Decoder, error) {
	if len(body) == 0 {
		return 0, nil, chash.ErrFrameEmpty
	}
	return body[0], chash.NewDecoder(body[1:]), nil
}
