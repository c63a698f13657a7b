package cluster

import (
	"bufio"
	"encoding/binary"
	"io"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// Client wire protocol
//
// The client protocol mirrors the peer protocol: after a 4-byte magic
// prefix, each direction is a stream of length-prefixed frames (uvarint
// body length || body). Every request starts with a kind byte and
// carries a client-chosen request id, so a session keeps any number of
// commands in flight on one connection and the server completes them in
// execution order.
//
// Request body:  kind || uvarint(reqID) || uvarint(deadline µs, 0 = none) || per-kind fields
// Reply body:    uvarint(reqID) || error(code, msg) || values (code 0 only)
//
// Ops, values and errors use the command package encoders, so nil values
// (key not found) survive the wire distinct from empty ones.

// ClientMagic2 prefixes client connections. The version byte is 2: the
// kind-less version-1 framing is no longer served, and a server drops
// its magic like any unknown one (the session reports the replica
// unreachable).
var ClientMagic2 = [4]byte{0xFF, 'T', 'C', 2}

// Request kinds.
const (
	// ReqSubmit is a plain submission: the serving replica mints the
	// command id, executes the ops on their (single) shard and replies
	// with the per-op values. Ops spanning shards are rejected with
	// ErrCodeCrossShard — a merged result needs ReqSubmitAt + ReqWatch.
	ReqSubmit byte = 1
	// ReqMint asks the replica to mint a contiguous block of command
	// identifiers for the session's cross-shard submissions. The reply
	// carries the first Dot of the block (see AppendMintReply); minted
	// seqs are covered by the replica's durable id reservation, so a
	// crash-restart never re-mints them.
	ReqMint byte = 2
	// ReqSubmitAt submits a (typically cross-shard) command under a
	// client-held id minted via ReqMint. The serving replica — the
	// "gateway", a replica of the request's target shard — drives the
	// whole multi-shard protocol and replies with its own shard's result
	// segment; the client collects the other shards' segments via
	// ReqWatch registrations placed concurrently at one replica of each
	// other accessed shard.
	ReqSubmitAt byte = 3
	// ReqWatch registers interest in a command id at a replica of the
	// request's target shard: the reply carries that shard's result
	// segment once the command executes locally (or immediately, from
	// the parked-results buffer, if it already has).
	ReqWatch byte = 4
)

// MaxClientFrameBytes bounds a client protocol frame body in both
// directions; receivers drop connections announcing larger frames.
const MaxClientFrameBytes = 64 << 20

// AppendClientReply appends a reply frame (length prefix included) to
// buf. A zero werr.Code reports success and carries values; any other
// code carries only the error. scratch is a reusable body buffer (the
// length prefix is variable width, so the body is staged there before
// the copy into buf); callers on the hot path keep one per connection so
// steady state allocates nothing.
//
//tempo:noalloc
func AppendClientReply(buf []byte, scratch *[]byte, reqID uint64, werr command.WireError, values [][]byte) []byte {
	body := binary.AppendUvarint((*scratch)[:0], reqID)
	body = command.AppendError(body, werr)
	if werr.Code == command.ErrCodeNone {
		body = command.AppendValues(body, values)
	}
	*scratch = body
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// DecodeClientReply decodes a reply frame body.
func DecodeClientReply(b []byte) (reqID uint64, werr command.WireError, values [][]byte, err error) {
	if reqID, b, err = proto.ReadUvarint(b); err != nil {
		return 0, command.WireError{}, nil, err
	}
	if werr, b, err = command.DecodeError(b); err != nil {
		return 0, command.WireError{}, nil, err
	}
	if werr.Code == command.ErrCodeNone {
		if values, _, err = command.DecodeValues(b); err != nil {
			return 0, command.WireError{}, nil, err
		}
	}
	return reqID, werr, values, nil
}

// ClientRequest2 is one decoded request frame. Which fields
// are meaningful depends on Kind: every request has ReqID; Deadline
// rides on Submit/SubmitAt/Watch; Shard and ID on SubmitAt/Watch; Ops
// on Submit/SubmitAt; Count on Mint.
//
//tempo:wire encode=- decode=DecodeClientRequest2
type ClientRequest2 struct {
	Kind     byte
	ReqID    uint64
	Deadline time.Duration
	Shard    ids.ShardID
	ID       ids.Dot
	Count    uint64
	Ops      []command.Op
}

// appendReqHeader stages the fields shared by every request kind.
//
//tempo:noalloc
func appendReqHeader(body []byte, kind byte, reqID uint64, deadline time.Duration) []byte {
	body = append(body, kind)
	body = binary.AppendUvarint(body, reqID)
	return binary.AppendUvarint(body, uint64(deadline.Microseconds()))
}

// finishFrame appends the staged body to buf as one length-prefixed
// frame, updating the scratch buffer.
//
//tempo:noalloc
func finishFrame(buf []byte, scratch *[]byte, body []byte) []byte {
	*scratch = body
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// AppendSubmitRequest appends a plain-submission frame (length prefix
// included) to buf. deadline is the time budget the server may hold the
// command before failing it with ErrCodeTimeout; 0 means no deadline.
//
//tempo:noalloc
func AppendSubmitRequest(buf []byte, scratch *[]byte, reqID uint64, deadline time.Duration, ops []command.Op) []byte {
	body := appendReqHeader((*scratch)[:0], ReqSubmit, reqID, deadline)
	body = command.AppendOps(body, ops)
	return finishFrame(buf, scratch, body)
}

// AppendMintRequest appends an id-block mint frame.
//
//tempo:noalloc
func AppendMintRequest(buf []byte, scratch *[]byte, reqID uint64, count int) []byte {
	body := appendReqHeader((*scratch)[:0], ReqMint, reqID, 0)
	body = binary.AppendUvarint(body, uint64(count))
	return finishFrame(buf, scratch, body)
}

// AppendSubmitAtRequest appends a cross-shard submission frame:
// the full op list submitted under a client-held id, served by a
// replica of the target shard.
//
//tempo:noalloc
func AppendSubmitAtRequest(buf []byte, scratch *[]byte, reqID uint64, deadline time.Duration, shard ids.ShardID, id ids.Dot, ops []command.Op) []byte {
	body := appendReqHeader((*scratch)[:0], ReqSubmitAt, reqID, deadline)
	body = binary.AppendUvarint(body, uint64(shard))
	body = appendDot(body, id)
	body = command.AppendOps(body, ops)
	return finishFrame(buf, scratch, body)
}

// AppendWatchRequest appends a watch frame: the reply carries the
// target shard's result segment of the watched command.
//
//tempo:noalloc
func AppendWatchRequest(buf []byte, scratch *[]byte, reqID uint64, deadline time.Duration, shard ids.ShardID, id ids.Dot) []byte {
	body := appendReqHeader((*scratch)[:0], ReqWatch, reqID, deadline)
	body = binary.AppendUvarint(body, uint64(shard))
	body = appendDot(body, id)
	return finishFrame(buf, scratch, body)
}

//
//tempo:noalloc
func appendDot(buf []byte, id ids.Dot) []byte {
	buf = binary.AppendUvarint(buf, uint64(id.Source))
	return binary.AppendUvarint(buf, id.Seq)
}

func decodeDot(b []byte) (ids.Dot, []byte, error) {
	src, b, err := proto.ReadUvarint(b)
	if err != nil {
		return ids.Dot{}, b, err
	}
	seq, b, err := proto.ReadUvarint(b)
	if err != nil {
		return ids.Dot{}, b, err
	}
	return ids.Dot{Source: ids.ProcessID(src), Seq: seq}, b, nil
}

// DecodeClientRequest2 decodes a request frame body.
func DecodeClientRequest2(b []byte) (req ClientRequest2, err error) {
	if len(b) == 0 {
		return req, proto.ErrCorrupt
	}
	req.Kind = b[0]
	b = b[1:]
	if req.ReqID, b, err = proto.ReadUvarint(b); err != nil {
		return req, err
	}
	var us uint64
	if us, b, err = proto.ReadUvarint(b); err != nil {
		return req, err
	}
	req.Deadline = time.Duration(us) * time.Microsecond
	switch req.Kind {
	case ReqSubmit:
		if req.Ops, _, err = command.DecodeOps(b); err != nil {
			return req, err
		}
	case ReqMint:
		if req.Count, _, err = proto.ReadUvarint(b); err != nil {
			return req, err
		}
	case ReqSubmitAt, ReqWatch:
		var s uint64
		if s, b, err = proto.ReadUvarint(b); err != nil {
			return req, err
		}
		req.Shard = ids.ShardID(s)
		if req.ID, b, err = decodeDot(b); err != nil {
			return req, err
		}
		if req.Kind == ReqSubmitAt {
			if req.Ops, _, err = command.DecodeOps(b); err != nil {
				return req, err
			}
		}
	default:
		return req, proto.ErrCorrupt
	}
	return req, nil
}

// MaxMintBlock bounds how many ids one mint request may reserve.
const MaxMintBlock = 1 << 16

// AppendMintReply encodes a mint reply's payload as a single result
// value: the first Dot of the reserved block (the block is
// [Seq, Seq+count) at that source).
func AppendMintReply(id ids.Dot) [][]byte {
	return [][]byte{appendDot(nil, id)}
}

// DecodeMintReply decodes the payload built by AppendMintReply.
func DecodeMintReply(values [][]byte) (ids.Dot, error) {
	if len(values) != 1 {
		return ids.Dot{}, proto.ErrCorrupt
	}
	id, _, err := decodeDot(values[0])
	return id, err
}

// ReadFrame reads one length-prefixed frame body into *buf (grown as
// needed and reused across calls) and returns the body slice, which is
// only valid until the next call.
func ReadFrame(br *bufio.Reader, limit uint64, buf *[]byte) ([]byte, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if size > limit {
		return nil, proto.ErrCorrupt
	}
	if uint64(cap(*buf)) < size {
		*buf = make([]byte, size)
	}
	b := (*buf)[:size]
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}
