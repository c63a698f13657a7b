package epaxos

import (
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// Binary wire codec for the EPaxos/Atlas messages, mirroring the Tempo
// codec: hand-rolled, varint-based, append-style encoders
// (proto.BinaryMessage) plus registered decoders. Encodings are
// deterministic (Quorums maps are serialized in shard order, dependency
// sets travel pre-sorted), so decode∘encode is the identity on bytes —
// pinned by FuzzCompareCodecRoundTrip in internal/engine.

// Wire tags. Tempo owns 1–14; EPaxos owns the 32-range. Never reuse or
// renumber: the tag is the cross-version contract.
const (
	tagESubmit byte = iota + 32
	tagEPreAccept
	tagEPreAcceptAck
	tagEAccept
	tagEAcceptAck
	tagECommit
	tagECommitReq
)

func init() {
	proto.RegisterWire(tagESubmit, decodeESubmit)
	proto.RegisterWire(tagEPreAccept, decodeEPreAccept)
	proto.RegisterWire(tagEPreAcceptAck, decodeEPreAcceptAck)
	proto.RegisterWire(tagEAccept, decodeEAccept)
	proto.RegisterWire(tagEAcceptAck, decodeEAcceptAck)
	proto.RegisterWire(tagECommit, decodeECommit)
	proto.RegisterWire(tagECommitReq, decodeECommitReq)

}

// --- shared field helpers ---

//
//tempo:noalloc
func appendDot(buf []byte, d ids.Dot) []byte {
	buf = proto.AppendUvarint(buf, uint64(d.Source))
	return proto.AppendUvarint(buf, d.Seq)
}

func readDot(b []byte) (ids.Dot, []byte, error) {
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

// appendDots serializes a dependency set as-is: the protocol keeps deps
// sorted (sortDots/unionDots), so equal sets produce equal bytes.
//
//tempo:noalloc
func appendDots(buf []byte, deps []ids.Dot) []byte {
	buf = proto.AppendUvarint(buf, uint64(len(deps)))
	for _, d := range deps {
		buf = appendDot(buf, d)
	}
	return buf
}

func readDots(b []byte) ([]ids.Dot, []byte, error) {
	n, b, err := proto.ReadUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	var deps []ids.Dot // nil when empty, so decode∘encode is the identity
	if n > 0 {
		deps = make([]ids.Dot, n)
	}
	for i := range deps {
		if deps[i], b, err = readDot(b); err != nil {
			return nil, b, err
		}
	}
	return deps, b, nil
}

// appendQuorums serializes the map in ascending shard order so equal
// maps always produce equal bytes.
//
//tempo:noalloc
func appendQuorums(buf []byte, q Quorums) []byte {
	buf = proto.AppendUvarint(buf, uint64(len(q)))
	var stack [8]ids.ShardID
	keys := stack[:0]
	for s := range q {
		//tempo:allowalloc stack-backed up to 8 shards; grows only beyond that
		keys = append(keys, s)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; quorum maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, s := range keys {
		buf = proto.AppendUvarint(buf, uint64(s))
		ps := q[s]
		buf = proto.AppendUvarint(buf, uint64(len(ps)))
		for _, p := range ps {
			buf = proto.AppendUvarint(buf, uint64(p))
		}
	}
	return buf
}

func readQuorums(b []byte) (Quorums, []byte, error) {
	n, b, err := proto.ReadUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	if n == 0 {
		return nil, b, nil
	}
	q := make(Quorums, n)
	for i := uint64(0); i < n; i++ {
		var s, k uint64
		if s, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
		if k, b, err = proto.ReadUvarint(b); err != nil || k > uint64(len(b)) {
			return nil, b, proto.ErrCorrupt
		}
		var ps []ids.ProcessID // nil when empty, so decode∘encode is the identity
		if k > 0 {
			ps = make([]ids.ProcessID, k)
		}
		for j := uint64(0); j < k; j++ {
			var p uint64
			if p, b, err = proto.ReadUvarint(b); err != nil {
				return nil, b, err
			}
			ps[j] = ids.ProcessID(p)
		}
		q[ids.ShardID(s)] = ps
	}
	return q, b, nil
}

// --- per-message encoders and decoders ---

// WireTag implements proto.BinaryMessage.
func (m *ESubmit) WireTag() byte { return tagESubmit }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *ESubmit) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = command.AppendCommand(buf, m.Cmd)
	return appendQuorums(buf, m.Quorums)
}

func decodeESubmit(b []byte) (proto.Message, []byte, error) {
	m := &ESubmit{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.Cmd, b, err = command.DecodeCommand(b); err != nil {
		return nil, b, err
	}
	if m.Quorums, b, err = readQuorums(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *EPreAccept) WireTag() byte { return tagEPreAccept }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *EPreAccept) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = command.AppendCommand(buf, m.Cmd)
	buf = appendQuorums(buf, m.Quorums)
	buf = proto.AppendUvarint(buf, m.Seq)
	return appendDots(buf, m.Deps)
}

func decodeEPreAccept(b []byte) (proto.Message, []byte, error) {
	m := &EPreAccept{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.Cmd, b, err = command.DecodeCommand(b); err != nil {
		return nil, b, err
	}
	if m.Quorums, b, err = readQuorums(b); err != nil {
		return nil, b, err
	}
	if m.Seq, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.Deps, b, err = readDots(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *EPreAcceptAck) WireTag() byte { return tagEPreAcceptAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *EPreAcceptAck) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, m.Seq)
	return appendDots(buf, m.Deps)
}

func decodeEPreAcceptAck(b []byte) (proto.Message, []byte, error) {
	m := &EPreAcceptAck{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.Seq, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.Deps, b, err = readDots(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *EAccept) WireTag() byte { return tagEAccept }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *EAccept) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, uint64(m.Ballot))
	buf = proto.AppendUvarint(buf, m.Seq)
	return appendDots(buf, m.Deps)
}

func decodeEAccept(b []byte) (proto.Message, []byte, error) {
	m := &EAccept{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	if m.Seq, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.Deps, b, err = readDots(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *EAcceptAck) WireTag() byte { return tagEAcceptAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *EAcceptAck) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	return proto.AppendUvarint(buf, uint64(m.Ballot))
}

func decodeEAcceptAck(b []byte) (proto.Message, []byte, error) {
	m := &EAcceptAck{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *ECommit) WireTag() byte { return tagECommit }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *ECommit) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, uint64(m.Shard))
	buf = command.AppendCommand(buf, m.Cmd)
	buf = proto.AppendUvarint(buf, m.Seq)
	return appendDots(buf, m.Deps)
}

func decodeECommit(b []byte) (proto.Message, []byte, error) {
	m := &ECommit{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var shard uint64
	if shard, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Shard = ids.ShardID(shard)
	if m.Cmd, b, err = command.DecodeCommand(b); err != nil {
		return nil, b, err
	}
	if m.Seq, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.Deps, b, err = readDots(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *ECommitReq) WireTag() byte { return tagECommitReq }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *ECommitReq) AppendBinary(buf []byte) []byte {
	return appendDot(buf, m.ID)
}

func decodeECommitReq(b []byte) (proto.Message, []byte, error) {
	m := &ECommitReq{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}
