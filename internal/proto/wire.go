package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary wire codec
//
// Each message type implements BinaryMessage with a hand-rolled,
// varint-based, append-style encoder (zero allocations when the caller
// reuses the destination buffer), and registers a matching decoder
// under a one-byte tag. Framing for the cluster transport lives in
// internal/cluster; this file owns the per-message layer: tag dispatch
// plus shared varint primitives.

// ErrCorrupt reports undecodable wire data (truncated buffer, unknown
// tag, varint overflow).
var ErrCorrupt = errors.New("proto: corrupt wire data")

// BinaryMessage is implemented by messages that support the hand-rolled
// binary codec. AppendBinary appends the encoding of the message body
// (without the tag) to buf and returns the extended slice; it must not
// retain buf. Encoding the same value must always produce the same bytes
// (maps are serialized in sorted order), so decode∘encode is the
// identity on bytes.
type BinaryMessage interface {
	Message
	// WireTag returns the one-byte message type tag.
	WireTag() byte
	// AppendBinary appends the message body to buf.
	AppendBinary(buf []byte) []byte
}

// WireDecoder decodes a message body (tag already consumed) from the
// front of b, returning the message and the unconsumed remainder.
type WireDecoder func(b []byte) (Message, []byte, error)

var wireDecoders [256]WireDecoder

// RegisterWire registers the decoder for a message tag. It panics on
// duplicate registration.
func RegisterWire(tag byte, dec WireDecoder) {
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("proto: wire tag %d registered twice", tag))
	}
	wireDecoders[tag] = dec
}

// AppendMessage appends the tagged binary encoding of m to buf.
//
//tempo:noalloc
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	bm, ok := m.(BinaryMessage)
	if !ok {
		//tempo:allowalloc error path only; every registered message is a BinaryMessage
		return buf, fmt.Errorf("proto: %T does not implement BinaryMessage", m)
	}
	buf = append(buf, bm.WireTag())
	return bm.AppendBinary(buf), nil
}

// DecodeMessage decodes one tagged message from the front of b,
// returning the unconsumed remainder.
func DecodeMessage(b []byte) (Message, []byte, error) {
	if len(b) == 0 {
		return nil, b, ErrCorrupt
	}
	dec := wireDecoders[b[0]]
	if dec == nil {
		return nil, b, fmt.Errorf("proto: unknown wire tag %d: %w", b[0], ErrCorrupt)
	}
	return dec(b[1:])
}

// AppendUvarint appends v in varint encoding.
//
//tempo:noalloc
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// ReadUvarint decodes a varint from the front of b.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, ErrCorrupt
	}
	return v, b[n:], nil
}

// AppendByteSlice appends a length-prefixed byte slice.
//
//tempo:noalloc
func AppendByteSlice(buf, s []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadByteSlice decodes a length-prefixed byte slice. Empty slices
// decode as nil, so encodings round-trip byte-identically.
func ReadByteSlice(b []byte) ([]byte, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil || uint64(len(rest)) < n {
		return nil, b, ErrCorrupt
	}
	if n == 0 {
		return nil, rest, nil
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}
