package transport

import (
	"errors"
	"fmt"

	"dcert/internal/chash"
	"dcert/internal/core"
)

// Payload codec: the in-process bus carries typed payloads; the wire carries
// bytes, server to client only. This codec maps the certificate stream's vocabulary (a
// *core.CertBundle per certified block, a *core.SegmentCert per multi-block
// segment) plus raw []byte onto tagged canonical encodings, so a remote
// subscriber receives exactly the same Go value an in-process one would —
// byte-identical Marshal output, since the codec round-trips through each
// type's own canonical wire format.

// Payload errors.
var (
	// ErrPayloadType is returned for a hub payload of a type the wire cannot
	// carry; the server skips such a delivery.
	ErrPayloadType = errors.New("transport: unsupported payload type")
	// ErrPayloadCorrupt is returned when a tagged payload fails to decode.
	ErrPayloadCorrupt = errors.New("transport: corrupt payload")
)

// Payload tags.
const (
	payloadBytes      byte = 0 // raw []byte
	payloadCertBundle byte = 3 // *core.CertBundle
	payloadSegment    byte = 5 // *core.SegmentCert
)

// encodePayload renders a topic payload as a tagged byte string.
func encodePayload(p any) ([]byte, error) {
	switch v := p.(type) {
	case []byte:
		return append([]byte{payloadBytes}, v...), nil
	case *core.CertBundle:
		if v.Header == nil || v.Cert == nil {
			return nil, fmt.Errorf("%w: incomplete cert bundle", ErrPayloadType)
		}
		e := chash.NewEncoder(1 + v.EncodedSize())
		e.PutByte(payloadCertBundle)
		v.Encode(e)
		return e.Bytes(), nil
	case *core.SegmentCert:
		if len(v.Headers) == 0 || v.Cert == nil {
			return nil, fmt.Errorf("%w: incomplete segment", ErrPayloadType)
		}
		e := chash.NewEncoder(1 + v.EncodedSize())
		e.PutByte(payloadSegment)
		v.Encode(e)
		return e.Bytes(), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrPayloadType, p)
	}
}

// decodePayload parses a tagged byte string back into its typed payload.
func decodePayload(raw []byte) (any, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrPayloadCorrupt)
	}
	tag, rest := raw[0], raw[1:]
	switch tag {
	case payloadBytes:
		out := make([]byte, len(rest))
		copy(out, rest)
		return out, nil
	case payloadCertBundle:
		b, err := core.UnmarshalCertBundle(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPayloadCorrupt, err)
		}
		return b, nil
	case payloadSegment:
		seg, err := core.UnmarshalSegmentCert(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: segment: %v", ErrPayloadCorrupt, err)
		}
		return seg, nil
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrPayloadCorrupt, tag)
	}
}
