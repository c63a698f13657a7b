package command

import (
	"encoding/binary"
	"errors"

	"tempo/internal/ids"
)

// Binary wire encoding of commands, shared by every protocol message
// that carries a payload. The command package sits below internal/proto
// in the import graph, so the varint primitives are local.

// ErrCorrupt reports an undecodable command encoding.
var ErrCorrupt = errors.New("command: corrupt wire data")

// AppendCommand appends the binary encoding of c to buf: a presence
// byte, then id, ops (kind, key, value) and padding. A nil command
// encodes as a single 0 byte.
//
//tempo:noalloc
func AppendCommand(buf []byte, c *Command) []byte {
	if c == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(c.ID.Source))
	buf = binary.AppendUvarint(buf, c.ID.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(c.Ops)))
	for _, op := range c.Ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	buf = binary.AppendUvarint(buf, uint64(c.Padding))
	return buf
}

// DecodeCommand decodes a command from the front of b, returning the
// unconsumed remainder.
func DecodeCommand(b []byte) (*Command, []byte, error) {
	if len(b) == 0 {
		return nil, b, ErrCorrupt
	}
	present := b[0]
	b = b[1:]
	if present == 0 {
		return nil, b, nil
	}
	c := &Command{}
	var v uint64
	var err error
	if v, b, err = readUvarint(b); err != nil {
		return nil, b, err
	}
	c.ID.Source = ids.ProcessID(v)
	if c.ID.Seq, b, err = readUvarint(b); err != nil {
		return nil, b, err
	}
	var nops uint64
	if nops, b, err = readUvarint(b); err != nil {
		return nil, b, err
	}
	if nops > uint64(len(b)) { // each op needs at least one byte
		return nil, b, ErrCorrupt
	}
	if nops > 0 {
		c.Ops = make([]Op, nops)
	}
	for i := range c.Ops {
		if len(b) == 0 {
			return nil, b, ErrCorrupt
		}
		c.Ops[i].Kind = OpKind(b[0])
		b = b[1:]
		var n uint64
		if n, b, err = readUvarint(b); err != nil || n > uint64(len(b)) {
			return nil, b, ErrCorrupt
		}
		c.Ops[i].Key = Key(b[:n])
		b = b[n:]
		if n, b, err = readUvarint(b); err != nil || n > uint64(len(b)) {
			return nil, b, ErrCorrupt
		}
		if n > 0 {
			c.Ops[i].Value = append([]byte(nil), b[:n]...)
			b = b[n:]
		}
	}
	var pad uint64
	if pad, b, err = readUvarint(b); err != nil {
		return nil, b, err
	}
	c.Padding = int(pad)
	return c, b, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, ErrCorrupt
	}
	return v, b[n:], nil
}

// Client protocol payloads. The client↔replica protocol frames carry raw
// operation lists (the replica mints the command identifier), per-op
// result values, and typed errors; their encoders live here so both the
// cluster runtime and the public client package share one layout.

// MaxOpsPerCommand bounds the operation count a decoded command may
// claim. It caps what an untrusted client connection can make the
// server allocate before per-op decoding detects corruption, and is far
// above any real command (the paper's workloads use 1-2 ops).
const MaxOpsPerCommand = 1 << 16

// AppendOps appends the binary encoding of an operation list to buf.
//
//tempo:noalloc
func AppendOps(buf []byte, ops []Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	return buf
}

// DecodeOps decodes an operation list from the front of b, returning the
// unconsumed remainder.
func DecodeOps(b []byte) ([]Op, []byte, error) {
	nops, b, err := readUvarint(b)
	// Each op needs ≥3 bytes (kind, key length, value length); the hard
	// cap keeps a hostile length claim from amplifying into a huge
	// allocation before per-op decoding fails.
	if err != nil || nops > MaxOpsPerCommand || nops*3 > uint64(len(b)) {
		return nil, b, ErrCorrupt
	}
	ops := make([]Op, nops)
	for i := range ops {
		if len(b) == 0 {
			return nil, b, ErrCorrupt
		}
		ops[i].Kind = OpKind(b[0])
		b = b[1:]
		var n uint64
		if n, b, err = readUvarint(b); err != nil || n > uint64(len(b)) {
			return nil, b, ErrCorrupt
		}
		ops[i].Key = Key(b[:n])
		b = b[n:]
		if n, b, err = readUvarint(b); err != nil || n > uint64(len(b)) {
			return nil, b, ErrCorrupt
		}
		if n > 0 {
			ops[i].Value = append([]byte(nil), b[:n]...)
			b = b[n:]
		}
	}
	return ops, b, nil
}

// AppendValues appends per-op result values with a presence byte per
// entry, so a nil value (key not found) survives the wire distinct from
// a present-but-empty value.
//
//tempo:noalloc
func AppendValues(buf []byte, values [][]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	for _, v := range values {
		if v == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// DecodeValues decodes a value list encoded by AppendValues. Absent
// entries decode as nil; present entries are always non-nil, even when
// empty.
func DecodeValues(b []byte) ([][]byte, []byte, error) {
	nv, b, err := readUvarint(b)
	if err != nil || nv > uint64(len(b)) { // each value needs ≥1 byte
		return nil, b, ErrCorrupt
	}
	values := make([][]byte, nv)
	for i := range values {
		if len(b) == 0 {
			return nil, b, ErrCorrupt
		}
		present := b[0]
		b = b[1:]
		if present == 0 {
			continue
		}
		var n uint64
		if n, b, err = readUvarint(b); err != nil || n > uint64(len(b)) {
			return nil, b, ErrCorrupt
		}
		values[i] = make([]byte, n)
		copy(values[i], b[:n])
		b = b[n:]
	}
	return values, b, nil
}

// ErrCode is a typed error crossing the client protocol.
type ErrCode byte

// Wire error codes. Never reuse or renumber: the code is the
// cross-version contract with deployed clients.
const (
	// ErrCodeNone means success.
	ErrCodeNone ErrCode = 0
	// ErrCodeTimeout reports that the request's deadline expired before
	// the command executed here; it may still execute later.
	ErrCodeTimeout ErrCode = 1
	// ErrCodeBadRequest reports a malformed request (e.g. no operations).
	ErrCodeBadRequest ErrCode = 2
	// ErrCodeShutdown reports that the serving replica is shutting down.
	ErrCodeShutdown ErrCode = 3
	// ErrCodeWrongShard reports a request whose key's shard is not
	// replicated by the serving process.
	ErrCodeWrongShard ErrCode = 4
	// ErrCodeCrossShard reports a plain submission whose operations span
	// shards; such commands must go through the cross-shard submission
	// protocol (submit-at + watch), which merges per-shard result
	// segments instead of silently returning one shard's values.
	ErrCodeCrossShard ErrCode = 5
	// ErrCodeDraining reports a submission to a replica that is leaving
	// the cluster (dynamic membership's graceful drain): it still
	// finishes accepted commands but takes no new ones. Clients retry
	// against another replica and refresh their configuration.
	ErrCodeDraining ErrCode = 6
)

// Typed client-visible errors mirroring the wire codes. They live here,
// below every runtime in the import graph, so both the public client
// package (which re-exports them) and the in-process runtimes return
// the same sentinels.
var (
	// ErrTimeout reports a request whose deadline expired before its
	// result arrived. The command's outcome is unknown: it may have
	// executed, or may still execute after later commands.
	ErrTimeout = errors.New("tempo: request timed out")
	// ErrNotFound reports a read of a key with no value.
	ErrNotFound = errors.New("tempo: key not found")
	// ErrClosed reports a request against a closed session or a replica
	// that shut down.
	ErrClosed = errors.New("tempo: session closed")
	// ErrWrongShard reports a command on a key whose shard is not
	// replicated by any reachable process (a partial-replication topology
	// where the session dialed only a subset of the shards).
	ErrWrongShard = errors.New("tempo: key's shard not replicated by any dialed replica")
	// ErrDraining reports a submission to a replica that is gracefully
	// leaving the cluster; retry against another replica (sessions with
	// membership refresh re-route automatically).
	ErrDraining = errors.New("tempo: replica draining")
)

// WireError is a typed error plus detail message as carried by the
// client protocol.
//
//tempo:wire encode=AppendError decode=DecodeError
type WireError struct {
	Code ErrCode
	Msg  string
}

// AppendError appends the binary encoding of a wire error.
//
//tempo:noalloc
func AppendError(buf []byte, e WireError) []byte {
	buf = append(buf, byte(e.Code))
	buf = binary.AppendUvarint(buf, uint64(len(e.Msg)))
	return append(buf, e.Msg...)
}

// DecodeError decodes a wire error from the front of b.
func DecodeError(b []byte) (WireError, []byte, error) {
	if len(b) == 0 {
		return WireError{}, b, ErrCorrupt
	}
	e := WireError{Code: ErrCode(b[0])}
	b = b[1:]
	n, b, err := readUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return WireError{}, b, ErrCorrupt
	}
	e.Msg = string(b[:n])
	return e, b[n:], nil
}
